package wal

import (
	"math/rand"
	"reflect"
	"testing"

	"divtopk/internal/graph"
)

// FuzzDecodeRecord drives the decoder of WAL record payloads, which boot
// replays from disk. The property: no input panics, and an accepted payload
// re-encodes to bytes that decode to the same version and delta. The seed
// corpus runs with go test; go test -fuzz explores from it.
func FuzzDecodeRecord(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		f.Add(encodeRecord(nil, uint64(i+1), randDelta(rng)))
	}
	d := &graph.Delta{}
	d.AddNode("A", map[string]graph.Value{"z": graph.IntValue(1), "a": graph.StrValue("x"), "m": graph.IntValue(-7)})
	d.InsertEdge(3, 4)
	d.DeleteEdge(4, 3)
	f.Add(encodeRecord(nil, 9, d))
	f.Add(encodeRecord(nil, 0, &graph.Delta{}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		version, d, err := decodeRecord(payload)
		if err != nil {
			return
		}
		v2, d2, err := decodeRecord(encodeRecord(nil, version, d))
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if v2 != version || !reflect.DeepEqual(d2, d) {
			t.Fatalf("round trip changed the record:\n got %d %#v\nwant %d %#v", v2, d2, version, d)
		}
	})
}
