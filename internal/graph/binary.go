package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Binary snapshot format (checkpoint payload of the durability layer): the
// CSR arrays of a Graph flattened little-endian, self-validating via a
// trailing whole-file CRC-32C.
//
//	magic     "DTKCSR1\x00"                      8 bytes
//	version   u64
//	n, m      u64 each
//	dict      u64 count, then per name: u32 length + bytes (ID order)
//	labels    n × i32
//	outOff    (n+1) × i32
//	outAdj    m × i32
//	inOff     (n+1) × i32
//	inAdj     m × i32
//	attrs     u64 count of attributed nodes, then per node in ascending ID
//	          order: u32 node, u32 numAttrs, then per attr in sorted key
//	          order: u32 key length + bytes, u8 kind, i64 | (u32 len + bytes)
//	crc       u32 CRC-32C over everything above
//
// Attribute keys and attributed nodes are emitted in sorted order, and dict
// names in ID order, so serializing the same snapshot twice yields identical
// bytes — the recovery tests rely on comparing checkpoint files directly.

var binaryMagic = [8]byte{'D', 'T', 'K', 'C', 'S', 'R', '1', 0}

var csrCRCTable = crc32.MakeTable(crc32.Castagnoli)

func appendU32(buf []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(buf, v) }
func appendU64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }

func appendLenBytes(buf []byte, s string) []byte {
	buf = appendU32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendI32s(buf []byte, vs []int32) []byte {
	for _, v := range vs {
		buf = appendU32(buf, uint32(v))
	}
	return buf
}

// WriteBinary serializes g into the binary snapshot format, returning the
// complete file contents including the trailing CRC.
func WriteBinary(g *Graph) []byte {
	names := g.dict.Names()
	buf := make([]byte, 0, 64+4*(len(g.labels)+len(g.outOff)+len(g.outAdj)+len(g.inOff)+len(g.inAdj)))
	buf = append(buf, binaryMagic[:]...)
	buf = appendU64(buf, g.version)
	buf = appendU64(buf, uint64(g.n))
	buf = appendU64(buf, uint64(g.m))
	buf = appendU64(buf, uint64(len(names)))
	for _, name := range names {
		buf = appendLenBytes(buf, name)
	}
	labels := make([]int32, len(g.labels))
	for i, l := range g.labels {
		labels[i] = int32(l)
	}
	buf = appendI32s(buf, labels)
	buf = appendI32s(buf, g.outOff)
	buf = appendI32s(buf, g.outAdj)
	buf = appendI32s(buf, g.inOff)
	buf = appendI32s(buf, g.inAdj)

	var attributed []NodeID
	for v := NodeID(0); int(v) < g.n; v++ {
		if g.attrs.count(v) > 0 {
			attributed = append(attributed, v)
		}
	}
	buf = appendU64(buf, uint64(len(attributed)))
	for _, v := range attributed {
		buf = appendU32(buf, uint32(v))
		buf = appendU32(buf, uint32(g.attrs.count(v)))
		g.attrs.each(v, func(k string, val Value) {
			buf = appendLenBytes(buf, k)
			buf = append(buf, byte(val.Kind))
			if val.Kind == KindInt {
				buf = appendU64(buf, uint64(val.Int))
			} else {
				buf = appendLenBytes(buf, val.Str)
			}
		})
	}
	return appendU32(buf, crc32.Checksum(buf, csrCRCTable))
}

// binReader walks a binary snapshot body, remembering the first error.
type binReader struct {
	buf []byte
	err error
}

func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("graph: "+format, args...)
	}
}

func (r *binReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 4 {
		r.fail("snapshot truncated reading u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}

func (r *binReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.fail("snapshot truncated reading u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *binReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.fail("snapshot truncated reading byte")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *binReader) lenBytes() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if uint64(n) > uint64(len(r.buf)) {
		r.fail("snapshot string length %d exceeds remaining %d bytes", n, len(r.buf))
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

func (r *binReader) i32s(n int) []int32 {
	if r.err != nil {
		return nil
	}
	if uint64(n)*4 > uint64(len(r.buf)) {
		r.fail("snapshot array of %d int32s exceeds remaining %d bytes", n, len(r.buf))
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(r.buf[4*i:]))
	}
	r.buf = r.buf[4*n:]
	return out
}

// checkOffsets validates one CSR offset array: length n+1, starting at 0,
// non-decreasing, ending at m.
func checkOffsets(off []int32, m int, dir string) error {
	if off[0] != 0 {
		return fmt.Errorf("graph: snapshot %s offsets start at %d", dir, off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("graph: snapshot %s offsets decrease at %d", dir, i)
		}
	}
	if int(off[len(off)-1]) != m {
		return fmt.Errorf("graph: snapshot %s offsets end at %d, want m=%d", dir, off[len(off)-1], m)
	}
	return nil
}

// ReadBinary deserializes a binary snapshot produced by WriteBinary,
// validating the magic, the trailing CRC, and the structural invariants of
// the CSR arrays (offset monotonicity, adjacency bounds, label bounds). The
// returned graph carries the serialized version stamp and a fresh label
// dictionary reproducing the serialized IDs.
func ReadBinary(data []byte) (*Graph, error) {
	if len(data) < len(binaryMagic)+4 {
		return nil, fmt.Errorf("graph: snapshot too short (%d bytes)", len(data))
	}
	if string(data[:8]) != string(binaryMagic[:]) {
		return nil, fmt.Errorf("graph: snapshot has bad magic %q", data[:8])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, csrCRCTable), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("graph: snapshot CRC mismatch (file %08x, computed %08x)", want, got)
	}

	r := &binReader{buf: body[8:]}
	version := r.u64()
	n64, m64 := r.u64(), r.u64()
	if r.err != nil {
		return nil, r.err
	}
	const maxDim = 1 << 31
	if n64 >= maxDim || m64 >= maxDim {
		return nil, fmt.Errorf("graph: snapshot dimensions n=%d m=%d implausible", n64, m64)
	}
	n, m := int(n64), int(m64)

	dictCount := r.u64()
	if r.err == nil && dictCount > uint64(len(r.buf)) {
		r.fail("snapshot dict count %d exceeds remaining payload", dictCount)
	}
	dict := NewDict()
	for i := uint64(0); i < dictCount && r.err == nil; i++ {
		name := r.lenBytes()
		if r.err == nil {
			if id := dict.Intern(name); uint64(id) != i {
				r.fail("snapshot dict name %q duplicated", name)
			}
		}
	}

	rawLabels := r.i32s(n)
	outOff := r.i32s(n + 1)
	outAdj := r.i32s(m)
	inOff := r.i32s(n + 1)
	inAdj := r.i32s(m)

	attrCount := r.u64()
	if r.err == nil && attrCount > uint64(len(r.buf)) {
		r.fail("snapshot attributed-node count %d exceeds remaining payload", attrCount)
	}
	var attrs attrWriter
	nodeAttrs := make(map[string]Value) // one node's attributes, reused
	prevNode := -1
	for i := uint64(0); i < attrCount && r.err == nil; i++ {
		v := int(r.u32())
		numAttrs := r.u32()
		if r.err != nil {
			break
		}
		if v <= prevNode || v >= n {
			r.fail("snapshot attributed node %d out of order or out of range", v)
			break
		}
		prevNode = v
		if uint64(numAttrs) > uint64(len(r.buf)) {
			r.fail("snapshot attr count %d exceeds remaining payload", numAttrs)
			break
		}
		clear(nodeAttrs)
		for j := uint32(0); j < numAttrs && r.err == nil; j++ {
			k := r.lenBytes()
			kind := ValueKind(r.byte())
			switch kind {
			case KindInt:
				nodeAttrs[k] = IntValue(int64(r.u64()))
			case KindString:
				nodeAttrs[k] = StrValue(r.lenBytes())
			default:
				r.fail("snapshot unknown attribute kind %d", kind)
			}
		}
		if r.err == nil {
			attrs.add(v, nodeAttrs)
		}
	}
	if r.err == nil && len(r.buf) != 0 {
		r.fail("snapshot has %d trailing bytes", len(r.buf))
	}
	if r.err != nil {
		return nil, r.err
	}

	labels := make([]LabelID, n)
	for i, l := range rawLabels {
		if l < 0 || uint64(l) >= dictCount {
			return nil, fmt.Errorf("graph: snapshot node %d label %d out of dict range %d", i, l, dictCount)
		}
		labels[i] = LabelID(l)
	}
	if err := checkOffsets(outOff, m, "out"); err != nil {
		return nil, err
	}
	if err := checkOffsets(inOff, m, "in"); err != nil {
		return nil, err
	}
	for _, adj := range [][]NodeID{outAdj, inAdj} {
		for _, w := range adj {
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: snapshot adjacency entry %d out of node range %d", w, n)
			}
		}
	}

	byLabel := make(map[LabelID][]NodeID)
	for v, l := range labels {
		byLabel[l] = append(byLabel[l], NodeID(v))
	}
	return &Graph{
		n:       n,
		m:       m,
		labels:  labels,
		attrs:   attrs.t,
		dict:    dict,
		outOff:  outOff,
		outAdj:  outAdj,
		inOff:   inOff,
		inAdj:   inAdj,
		byLabel: byLabel,
		version: version,
	}, nil
}
