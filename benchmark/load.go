package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// newLoadClient returns the run's one HTTP client: keep-alive connections to
// the loopback daemon, capped at the client count so the load never uses more
// than nproc connections.
func newLoadClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 60 * time.Second,
	}
}

// post sends body and reads the whole response into buf (reset first); the
// measured latency of every operation includes that body read.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// scanUint finds `"<key>":<digits>` in a JSON body without decoding it: the
// readers need every response's version, and a full decode of a response
// carrying ten relevant sets would cost the load generator more than the
// daemon spent answering a hit.
func scanUint(body []byte, key string) (uint64, bool) {
	i := bytes.Index(body, []byte(`"`+key+`":`))
	if i < 0 {
		return 0, false
	}
	i += len(key) + 3
	var v uint64
	n := 0
	for ; i < len(body) && body[i] >= '0' && body[i] <= '9'; i++ {
		v = v*10 + uint64(body[i]-'0')
		n++
	}
	return v, n > 0
}

// scanString finds `"<key>":"<value>"` the same way.
func scanString(body []byte, key string) string {
	i := bytes.Index(body, []byte(`"`+key+`":"`))
	if i < 0 {
		return ""
	}
	i += len(key) + 4
	j := bytes.IndexByte(body[i:], '"')
	if j < 0 {
		return ""
	}
	return string(body[i : i+j])
}

// kept is a response body retained for the off-the-clock checks.
type kept struct {
	version uint64
	body    []byte
}

// postCommit is one first-answer-at-a-new-version sample.
type postCommit struct {
	latNs int64
	cache string // the response's cache provenance: advanced, hit, miss, seeded
}

// querySamples is what the readers of one phase recorded. Every slice holds
// only checked-OK operations: a failed one has no latency.
type querySamples struct {
	attempted  int
	failed     int
	wallNs     int64
	byKind     [numKinds][]int64 // latency per query kind, ns
	postCommit []postCommit
	kept       map[int]kept // sampled shape -> its latest response
}

func (q *querySamples) all() []int64 {
	var out []int64
	for k := range q.byKind {
		out = append(out, q.byKind[k]...)
	}
	return out
}

func (q *querySamples) merge(o *querySamples) {
	q.attempted += o.attempted
	q.failed += o.failed
	for k := range q.byKind {
		q.byKind[k] = append(q.byKind[k], o.byKind[k]...)
	}
	q.postCommit = append(q.postCommit, o.postCommit...)
	for s, kp := range o.kept {
		if cur, ok := q.kept[s]; !ok || kp.version >= cur.version {
			if q.kept == nil {
				q.kept = make(map[int]kept)
			}
			q.kept[s] = kp
		}
	}
}

// readPlan tells the readers what to ask and what to keep.
type readPlan struct {
	in      *inputs
	base    string
	client  *http.Client
	next    func(rng *rand.Rand, i int) int // shape id of a reader's i-th request
	sampled map[int]bool                    // shapes whose latest response is kept for checking
	// hotSeen, when set, holds per shape the highest version any reader has
	// seen an answer at (hot shapes only; nil entries are not tracked). The
	// reader that first sees a higher version records a post-commit sample.
	hotSeen []*atomic.Uint64
}

// askOne sends one query and records it into s.
func (rp *readPlan) askOne(shapeID int, buf *bytes.Buffer, s *querySamples) {
	sh := &rp.in.shapes[shapeID]
	s.attempted++
	t0 := time.Now()
	status, err := post(rp.client, rp.base+sh.path, sh.body, buf)
	lat := time.Since(t0).Nanoseconds()
	body := buf.Bytes()
	version, ok := scanUint(body, "version")
	if err != nil || status != http.StatusOK || !ok || !bytes.HasPrefix(body, []byte(`{"global_match":`)) {
		s.failed++
		return
	}
	s.byKind[sh.kind] = append(s.byKind[sh.kind], lat)
	if rp.hotSeen != nil && rp.hotSeen[shapeID] != nil {
		seen := rp.hotSeen[shapeID]
		for {
			cur := seen.Load()
			if version <= cur {
				break
			}
			if seen.CompareAndSwap(cur, version) {
				s.postCommit = append(s.postCommit, postCommit{latNs: lat, cache: scanString(body, "cache")})
				break
			}
		}
	}
	if rp.sampled[shapeID] {
		if s.kept == nil {
			s.kept = make(map[int]kept)
		}
		s.kept[shapeID] = kept{version: version, body: append([]byte(nil), body...)}
	}
}

// runReaders drives `clients` closed-loop readers — each sends its next
// request only when the previous answer has been read — until stop is
// closed or every reader has sent perReader requests (0 = no limit).
func (rp *readPlan) runReaders(clients int, seed int64, perReader int, stop <-chan struct{}) *querySamples {
	parts := make([]*querySamples, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
			s := &querySamples{}
			var buf bytes.Buffer
			for i := 0; perReader == 0 || i < perReader; i++ {
				select {
				case <-stop:
					parts[c] = s
					return
				default:
				}
				rp.askOne(rp.next(rng, i*clients+c), &buf, s)
			}
			parts[c] = s
		}()
	}
	wg.Wait()
	total := &querySamples{wallNs: time.Since(t0).Nanoseconds()}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// runMixed drives `clients` closed-loop clients that share one operation
// count: every updateEvery-th operation is the writer's next update, sent by
// whichever client drew that number, and all the others are reads from the
// plan. The mix is a ratio, not a rate, so that it is the same on a fast and
// on a slow machine. It runs until stop is closed.
func (rp *readPlan) runMixed(clients int, seed int64, updateEvery int, w *writer, stop <-chan struct{}) (*querySamples, *updateSamples) {
	reads := make([]*querySamples, clients)
	writes := make([]updateSamples, clients)
	var ops atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
			reads[c] = &querySamples{}
			var buf bytes.Buffer
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := int(ops.Add(1))
				if n%updateEvery != 0 {
					rp.askOne(rp.next(rng, n), &buf, reads[c])
				} else if i := w.take(); i >= 0 {
					w.send(i, &buf, &writes[c])
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Nanoseconds()
	q, u := &querySamples{wallNs: wall}, &updateSamples{wallNs: wall}
	for c := range reads {
		q.merge(reads[c])
		u.attempted += writes[c].attempted
		u.failed += writes[c].failed
		u.acks = append(u.acks, writes[c].acks...)
	}
	w.absorb(u)
	return q, u
}

// ack is the part of an update response the benchmark reads.
type ack struct {
	Version   uint64 `json:"version"`
	FirstNode *int   `json:"first_node"`
	Index     struct {
		BatchWidth int `json:"batch_width"`
	} `json:"index"`
}

// acked is one acknowledged update: which op, what the daemon answered, and
// how long the ack took.
type acked struct {
	op    int
	ack   ack
	latNs int64
}

type updateSamples struct {
	attempted int
	failed    int
	wallNs    int64
	acks      []acked
}

// writer hands out the pre-generated updates in order and tracks their acks.
type writer struct {
	in     *inputs
	base   string
	client *http.Client

	mu    sync.Mutex
	next  int             // next op to hand out
	done  []chan struct{} // closed when op i is acked (or failed)
	total updateSamples
}

func newWriter(in *inputs, base string, client *http.Client) *writer {
	w := &writer{in: in, base: base, client: client, done: make([]chan struct{}, len(in.updates))}
	for i := range w.done {
		w.done[i] = make(chan struct{})
	}
	return w
}

// take returns the next op index, or -1 when the plan is exhausted.
func (w *writer) take() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.next >= len(w.in.updates) {
		return -1
	}
	w.next++
	return w.next - 1
}

// send posts op i (after the ack of the op it depends on) and records the
// outcome.
func (w *writer) send(i int, buf *bytes.Buffer, s *updateSamples) {
	op := &w.in.updates[i]
	if op.dep >= 0 {
		<-w.done[op.dep]
	}
	s.attempted++
	sent := time.Now()
	status, err := post(w.client, w.base+"/v1/graphs/"+graphName+"/updates", op.body, buf)
	lat := time.Since(sent).Nanoseconds()
	var a ack
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(buf.Bytes(), &a)
	}
	if err != nil || status != http.StatusOK || a.Version == 0 {
		s.failed++
	} else {
		s.acks = append(s.acks, acked{op: i, ack: a, latNs: lat})
	}
	close(w.done[i])
}

// absorb adds a finished phase to the run's totals, which the checks and the
// attempted/failed counts are taken from.
func (w *writer) absorb(s *updateSamples) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.total.attempted += s.attempted
	w.total.failed += s.failed
	w.total.acks = append(w.total.acks, s.acks...)
}

// runClosed drives `clients` closed-loop writers until stop is closed or
// count updates were sent (0 = no limit), and returns this phase's samples.
func (w *writer) runClosed(clients, count int, stop <-chan struct{}) *updateSamples {
	parts := make([]updateSamples, clients)
	var sent atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				select {
				case <-stop:
					return
				default:
				}
				if count > 0 && sent.Add(1) > int64(count) {
					return
				}
				i := w.take()
				if i < 0 {
					return
				}
				w.send(i, &buf, &parts[c])
			}
		}()
	}
	wg.Wait()
	phase := &updateSamples{wallNs: time.Since(t0).Nanoseconds()}
	for i := range parts {
		phase.attempted += parts[i].attempted
		phase.failed += parts[i].failed
		phase.acks = append(phase.acks, parts[i].acks...)
	}
	w.absorb(phase)
	return phase
}

func (u *updateSamples) latencies() []int64 {
	out := make([]int64, len(u.acks))
	for i, a := range u.acks {
		out[i] = a.latNs
	}
	return out
}

// checkAcks verifies what every writer relies on: acks carry distinct,
// contiguous versions 1..n, and appended nodes landed where the sequential
// chain puts them.
func checkAcks(all []acked, in *inputs) error {
	byVersion := make(map[uint64]acked, len(all))
	for _, a := range all {
		if _, dup := byVersion[a.ack.Version]; dup {
			return fmt.Errorf("version %d acknowledged twice", a.ack.Version)
		}
		byVersion[a.ack.Version] = a
	}
	nodes := in.g.NumNodes()
	for v := uint64(1); v <= uint64(len(all)); v++ {
		a, ok := byVersion[v]
		if !ok {
			return fmt.Errorf("versions are not contiguous: %d acks, none for version %d", len(all), v)
		}
		if in.updates[a.op].kind == opAppend {
			if a.ack.FirstNode == nil || *a.ack.FirstNode != nodes {
				return fmt.Errorf("version %d: appended node landed at %v, the chain puts it at %d", v, a.ack.FirstNode, nodes)
			}
			nodes++
		}
	}
	return nil
}
