package core

// The delta-chain generators of advance_test.go, for the external test
// package (prebuilt_test.go).
var (
	RandomAdvGraph = randomAdvGraph
	RandomAdvDelta = randomAdvDelta
)
