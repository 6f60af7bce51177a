package core

// The delta-chain generators of advance_test.go and the per-batch fixpoint
// check of batches_test.go, for the external test package (prebuilt_test.go
// and the fuzz targets).
var (
	RandomAdvGraph = randomAdvGraph
	RandomAdvDelta = randomAdvDelta
	CheckBatches   = checkBatches
)
