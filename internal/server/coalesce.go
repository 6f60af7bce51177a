package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"

	"divtopk"
)

// updateOutcome is what one queued update request is acknowledged with:
// either a success response or a structured error. code == "" means success.
type updateOutcome struct {
	resp   UpdateResponse
	status int
	code   string
	msg    string
}

// updateJob is one request waiting in a coalescer's queue.
type updateJob struct {
	req  *UpdateRequest
	done chan updateOutcome

	// Filled during resolution, consumed by the commit.
	delta     *divtopk.Delta
	firstNode int // ID assigned to the request's first appended node; -1 if none
}

// coalescer is one graph's group-commit queue: requests arriving while a
// commit is in flight are merged into a single delta and applied by one
// index-maintenance pass and one WAL write, then each caller is acknowledged
// with its own version of the sequential chain the batch is equivalent to.
// The drain goroutine is the graph's sole updater, which is what lets it
// resolve every queued request against one base snapshot and pre-merge the
// batch for Matcher.UpdateMerged.
type coalescer struct {
	name string
	m    *divtopk.Matcher

	mu      sync.Mutex
	queue   []*updateJob
	running bool
}

// maxQueuedUpdates caps a coalescer's queue, the requests waiting behind the
// commit in flight. Past it, a writer is told to back off at once instead of
// holding its connection and memory while the queue grows without bound.
const maxQueuedUpdates = 1024

// submit enqueues req and blocks until its batch commits (or fails); with
// maxQueuedUpdates requests already queued it answers 429 overloaded
// instead. If ctx ends while the request still waits in the queue, it leaves
// the queue uncommitted and is answered 499 canceled; once the drain has
// taken it, it commits and is acknowledged as usual. The drain goroutine is
// started lazily by the first request to find it stopped.
func (c *coalescer) submit(ctx context.Context, req *UpdateRequest) updateOutcome {
	job := &updateJob{req: req, done: make(chan updateOutcome, 1)}
	c.mu.Lock()
	if len(c.queue) >= maxQueuedUpdates {
		c.mu.Unlock()
		return updateOutcome{status: http.StatusTooManyRequests, code: codeOverloaded,
			msg: fmt.Sprintf("%d updates of graph %q are already queued; retry later", maxQueuedUpdates, c.name)}
	}
	c.queue = append(c.queue, job)
	if !c.running {
		c.running = true
		go c.drain()
	}
	c.mu.Unlock()
	select {
	case out := <-job.done:
		return out
	case <-ctx.Done():
	}
	c.mu.Lock()
	i := slices.Index(c.queue, job)
	if i >= 0 {
		c.queue = slices.Delete(c.queue, i, i+1)
	}
	c.mu.Unlock()
	if i < 0 {
		return <-job.done
	}
	return updateOutcome{status: statusClientClosedRequest, code: codeCanceled, msg: "client canceled the request"}
}

// drain commits batches until the queue stays empty. Each iteration grabs
// everything queued so far — under load the batch width grows to whatever
// accumulated during the previous commit, which is exactly the group-commit
// throughput argument: per-batch cost is paid once per drain, not per
// request.
func (c *coalescer) drain() {
	for {
		c.mu.Lock()
		jobs := c.queue
		c.queue = nil
		if len(jobs) == 0 {
			c.running = false
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		c.commit(jobs)
	}
}

// commit resolves, merges and applies one batch. A request whose delta fails
// to resolve or merge is acknowledged with its own 400 and the merge restarts
// without it: one lost-sync client never fails its batch-mates, and the
// surviving requests commit exactly as if the bad one had been rejected by a
// sequential chain.
func (c *coalescer) commit(jobs []*updateJob) {
	base := c.m.Graph()
	remaining := jobs
	var merged *divtopk.Delta
restart:
	for {
		merged = &divtopk.Delta{}
		appends := 0
		for i, job := range remaining {
			d, firstNode, err := job.req.resolve(base.NumNodes() + appends)
			if err == nil {
				err = merged.Merge(base, d)
			}
			if err != nil {
				job.done <- updateOutcome{status: http.StatusBadRequest, code: codeBadDelta, msg: err.Error()}
				remaining = append(remaining[:i:i], remaining[i+1:]...)
				continue restart
			}
			job.delta, job.firstNode = d, firstNode
			appends += len(job.req.AddNodes)
		}
		break
	}
	if len(remaining) == 0 {
		return
	}
	parts := make([]*divtopk.Delta, len(remaining))
	for i, job := range remaining {
		parts[i] = job.delta
	}

	g2, stats, err := c.m.UpdateMerged(merged, parts)
	switch {
	case errors.Is(err, divtopk.ErrIndexMaintenance):
		// A server-side invariant violation, not any client's delta.
		c.failAll(remaining, http.StatusInternalServerError, codeInternal, err)
	case errors.Is(err, divtopk.ErrDurabilityUnavailable):
		// Well-formed but not durable, so not applied: 503 with a stable
		// code; retrying cannot help until the store recovers.
		c.failAll(remaining, http.StatusServiceUnavailable, codeDurability, err)
	case err != nil:
		c.failAll(remaining, http.StatusBadRequest, codeBadDelta, err)
	default:
		// Ack every caller with its own version of the equivalent sequential
		// chain: the batch moved the graph k versions forward, and request i
		// owns version final-k+1+i.
		k := uint64(len(remaining))
		for i, job := range remaining {
			resp := UpdateResponse{
				Name:    c.name,
				Version: g2.Version() - k + uint64(i) + 1,
				Nodes:   g2.NumNodes(),
				Edges:   g2.NumEdges(),
				Index:   stats,
			}
			if job.firstNode >= 0 {
				fn := job.firstNode
				resp.FirstNode = &fn
			}
			job.done <- updateOutcome{resp: resp}
		}
	}
}

// failAll acknowledges every job in the batch with the same structured error.
func (c *coalescer) failAll(jobs []*updateJob, status int, code string, err error) {
	for _, job := range jobs {
		job.done <- updateOutcome{status: status, code: code, msg: err.Error()}
	}
}

// coalescer returns the group-commit queue of name, creating it on first use.
// The matcher is pinned at creation: registry sessions are never replaced.
func (s *Server) coalescer(name string, m *divtopk.Matcher) *coalescer {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.coal[name]
	if !ok {
		c = &coalescer{name: name, m: m}
		s.coal[name] = c
	}
	return c
}
