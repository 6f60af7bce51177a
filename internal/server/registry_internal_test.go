package server

import (
	"strings"
	"sync"
	"testing"
	"time"

	"divtopk"
)

// TestRegistryAddWarmsOutsideTheLock pins that Add builds the session outside
// r.mu: while one registration's warm is parked, the lock is free, a
// concurrent duplicate fails at once as already being registered, and reads
// of another graph complete.
func TestRegistryAddWarmsOutsideTheLock(t *testing.T) {
	g := divtopk.NewSynthetic(200, 800, 4, 1)
	r := NewRegistry()
	if err := r.Add("other", g); err != nil {
		t.Fatal(err)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	build := newMatcher
	newMatcher = func(g *divtopk.Graph, opts ...divtopk.Option) *divtopk.Matcher {
		close(entered)
		<-release
		return build(g, opts...)
	}
	defer func() { newMatcher = build }()

	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(release)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := r.Add("g", g); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the session warm never started")
	}
	if !r.mu.TryLock() {
		t.Error("r.mu is held while a session warms")
	} else {
		r.mu.Unlock()
	}
	read := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, ok := r.Get("other"); !ok {
			t.Error("graph other is not registered")
		}
		read <- r.Add("g", g)
	}()
	select {
	case err := <-read:
		if err == nil || !strings.Contains(err.Error(), "is already being registered") {
			t.Errorf("duplicate Add during the warm: %v, want an already-being-registered error", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("reads and a duplicate Add did not complete while a session warmed")
	}
}
