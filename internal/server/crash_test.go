package server_test

import (
	"fmt"
	"math/rand"
	"testing"
)

// crashRun is the kill-and-recover fuzz of one seed, run as a history of the
// daemon model (FuzzDaemonHistory): phase commits updates over HTTP with the
// crash armed at a random byte of what it writes to the WAL and the
// checkpoints, the daemon is killed and rebooted over its directory, and
// phase runs again on the recovered daemon. The model checks every ack and
// answer against the graph rebuilt from the acknowledged updates, that the
// reboot recovers exactly what was acknowledged (plus at most a prefix of a
// torn batch), and /healthz throughout. A pilot run of the same tape, never
// crashed, measures the bytes the phase writes.
func crashRun(t *testing.T, seed int64, phase func(h *history)) {
	pilot := newHistory(t, seededTape(seed))
	start := pilot.d.fault.BytesWritten()
	phase(pilot)
	total := pilot.d.fault.BytesWritten() - start
	if total == 0 {
		t.Fatal("the pilot run wrote no bytes")
	}

	h := newHistory(t, seededTape(seed))
	offset := 1 + rand.New(rand.NewSource(seed)).Int63n(total)
	h.d.fault.CrashAfter(h.d.fault.BytesWritten() + offset)
	phase(h)
	if !h.d.fault.Crashed() {
		t.Fatalf("offset %d of %d did not crash the run (version %d)", offset, total, h.m.ver)
	}
	h.restart(false)
	phase(h)
	for i := 0; i < hotShapes; i++ {
		h.hot(i)
	}
	h.log()
}

// TestCrashRecoveryFuzz kills the daemon at a random byte offset of a run of
// single updates: the reboot must land on exactly the acknowledged version,
// answer byte-identically to a cold evaluation of the graph the acks define,
// and keep accepting updates.
func TestCrashRecoveryFuzz(t *testing.T) {
	for seed := int64(0); seed < 14; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			crashRun(t, seed, func(h *history) {
				for i := 0; i < 6; i++ {
					h.single()
				}
			})
		})
	}
}

// TestCrashRecoveryBatchFuzz is the group-commit extension: the run commits
// concurrent batches the coalescer merges, so crashes land inside a single
// multi-record WAL write. A torn batch write leaves a prefix of its
// per-request records, none of them acknowledged: recovery must reach at
// least every acknowledged version, and whatever it surfaces beyond them
// must be one order of the batch members in doubt.
func TestCrashRecoveryBatchFuzz(t *testing.T) {
	for seed := int64(100); seed < 114; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			crashRun(t, seed, func(h *history) {
				for i := 0; i < 2; i++ {
					h.batch()
				}
			})
		})
	}
}

// TestCleanShutdownRestart: Close checkpoints the graph at its served
// version, so a restarted registry recovers it with nothing to replay,
// reports it durable and healthy, and serves identical answers.
func TestCleanShutdownRestart(t *testing.T) {
	t.Parallel()
	h := newHistory(t, seededTape(7))
	for i := 0; i < 4; i++ {
		h.single()
	}
	h.restart(true)
	for i := 0; i < hotShapes; i++ {
		h.hot(i)
	}
}
