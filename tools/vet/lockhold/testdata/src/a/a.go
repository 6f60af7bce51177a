// Package a exercises the heavy-work-under-lock check against the shapes
// in the serving layer: claim state under the lock, release, compute.
package a

import "sync"

type store struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	items map[string]int
	ch    chan int
}

func ComputeCounts(n int) []int { return make([]int, n) }

func Warm() {}

// bad runs the traversal between Lock and Unlock — the exact shape of the
// pre-PR5 BoundsCache.Warm bug.
func (s *store) bad() {
	s.mu.Lock()
	Warm() // want `call to Warm in bad while s\.mu is locked`
	s.mu.Unlock()
}

// badDefer holds the lock to the end of the function via defer.
func (s *store) badDefer() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := ComputeCounts(3) // want `call to ComputeCounts in badDefer while s\.mu is locked`
	return len(c)
}

// badRW: RWMutex.Lock is the write side — same rule.
func (s *store) badRW() {
	s.rw.Lock()
	Warm() // want `call to Warm in badRW while s\.rw is locked`
	s.rw.Unlock()
}

// badSend blocks every other user of the lock behind a receiver.
func (s *store) badSend(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- v // want `channel send in badSend while s\.mu is locked`
}

// goodReleased claims under the lock and computes outside — the fixed
// countsFor shape. Must not be flagged.
func (s *store) goodReleased() []int {
	s.mu.Lock()
	n := len(s.items)
	s.mu.Unlock()
	return ComputeCounts(n)
}

// goodEarlyReturn unlocks in the hit branch and falls through to compute
// after the final unlock.
func (s *store) goodEarlyReturn(k string) int {
	s.mu.Lock()
	if v, ok := s.items[k]; ok {
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	return len(ComputeCounts(1))
}

// goodRead: a read lock never blocks other readers; the invariant targets
// the write side only.
func (s *store) goodRead() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return len(s.items)
}

// goodClosure: the literal runs elsewhere (deferred cleanup); its lock use
// is its own scope.
func (s *store) goodClosure() func() {
	s.mu.Lock()
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		delete(s.items, "k")
	}
}

// suppressed records a reviewed exception (tiny graphs, cold path).
func (s *store) suppressed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:allow lockhold cold startup path, runs once before serving begins
	Warm()
}

// --- cases the structured (pre-CFG) walker could not decide ---

// badBranchUnlock releases only on the hit branch; the miss path computes
// with the lock still held.
func (s *store) badBranchUnlock(k string) int {
	s.mu.Lock()
	if v, ok := s.items[k]; ok {
		s.mu.Unlock()
		return v
	}
	n := len(ComputeCounts(2)) // want `call to ComputeCounts in badBranchUnlock while s\.mu is locked`
	s.mu.Unlock()
	return n
}

// badSwitchLock acquires the lock on every arm of the switch, so it is
// must-held afterwards. The structured walker discarded per-case state and
// missed this.
func (s *store) badSwitchLock(mode int) {
	switch mode {
	case 0:
		s.mu.Lock()
	default:
		s.mu.Lock()
	}
	Warm() // want `call to Warm in badSwitchLock while s\.mu is locked`
	s.mu.Unlock()
}

// goodSwitchUnlock releases on every arm before computing. The structured
// walker kept the pre-switch state and false-positived here.
func (s *store) goodSwitchUnlock(mode int) int {
	s.mu.Lock()
	switch mode {
	case 0:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
	}
	return len(ComputeCounts(1))
}

// --- lock manipulation behind helpers (LockEffects facts) ---

// chainLock acquires through another helper; it is declared before lockIt
// so only the fact fixpoint, not declaration order, can resolve it.
func (s *store) chainLock() { s.lockIt() }

func (s *store) lockIt()   { s.mu.Lock() }
func (s *store) unlockIt() { s.mu.Unlock() }

// badHelper computes between helper-acquire and helper-release.
func (s *store) badHelper() {
	s.lockIt()
	Warm() // want `call to Warm in badHelper while s\.mu is locked`
	s.unlockIt()
}

// goodHelper claims under the helper-managed lock and computes outside.
func (s *store) goodHelper() []int {
	s.lockIt()
	n := len(s.items)
	s.unlockIt()
	return ComputeCounts(n)
}

// badChain: the lock travels through two helper hops.
func (s *store) badChain() {
	s.chainLock()
	Warm() // want `call to Warm in badChain while s\.mu is locked`
	s.mu.Unlock()
}

// --- the warm registry's admission (warmState in cacheadvance.go) ---

type incState struct{}

func BuildCandidatesParallel(n int) []int  { return make([]int, n) }
func NewIncStateSeeded(ci []int) *incState { return &incState{} }

type registry struct {
	mu      sync.Mutex
	entries map[string]*incState
}

// badWarmState builds a pattern's maintained state while holding the
// registry lock: every query and every commit's warm pass waits behind one
// candidate scan.
func (w *registry) badWarmState(text string) *incState {
	w.mu.Lock()
	defer w.mu.Unlock()
	if st := w.entries[text]; st != nil {
		return st
	}
	ci := BuildCandidatesParallel(len(text)) // want `call to BuildCandidatesParallel in badWarmState while w\.mu is locked`
	st := NewIncStateSeeded(ci)              // want `call to NewIncStateSeeded in badWarmState while w\.mu is locked`
	w.entries[text] = st
	return st
}

// goodWarmState is the shipped shape: look up under the lock, build outside
// it, re-lock to admit.
func (w *registry) goodWarmState(text string) *incState {
	w.mu.Lock()
	if st := w.entries[text]; st != nil {
		w.mu.Unlock()
		return st
	}
	w.mu.Unlock()
	st := NewIncStateSeeded(BuildCandidatesParallel(len(text)))
	w.mu.Lock()
	defer w.mu.Unlock()
	w.entries[text] = st
	return st
}
