// Package facts carries analyzer facts — knowledge an analyzer derives
// about a package's functions and publishes for the analysis of importing
// packages — across package boundaries for the divtopk-vet suite. It is the
// stdlib-only counterpart of the go/analysis fact mechanism: an analyzer
// attaches facts to functions during its Run (Pass.ExportObjectFact) and
// reads facts the same analyzer produced for dependencies
// (Pass.ImportObjectFact).
//
// The driver analyzes packages in dependency order (go list -deps emits
// dependencies before their importers) against one shared Set, so importing
// a fact is a map lookup. Facts are keyed by a stable object key (package
// path plus the receiver-qualified function name) rather than by object
// identity, because each package is type-checked against export data and an
// imported function is a different *types.Func than the one its own package
// saw. Only package-level functions and methods can carry facts; that is the
// only granularity the suite's analyzers need.
package facts

import (
	"go/types"
	"reflect"
)

// Fact is a marker interface for analyzer fact types, mirroring
// analysis.Fact upstream: a fact type is a pointer to a struct with an AFact
// method.
type Fact interface{ AFact() }

// ObjectKey returns the stable key of obj, or "" if the object cannot carry
// facts (only package-level funcs and methods can). Methods are keyed through
// their receiver's named type, so the key is the same on both sides of an
// import.
func ObjectKey(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		return fn.Pkg().Path() + ":" + named.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + ":" + fn.Name()
}

// Set is the fact store of one driver run. It is not safe for concurrent
// use; the driver is single-threaded.
type Set struct {
	obj map[string]map[string]Fact // objectKey -> analyzer -> fact
}

// NewSet returns an empty fact set.
func NewSet() *Set {
	return &Set{obj: map[string]map[string]Fact{}}
}

// PutObject attaches f to obj for analyzer. Objects that cannot carry facts
// are silently skipped (matching upstream's tolerance for local objects).
func (s *Set) PutObject(analyzer string, obj types.Object, f Fact) {
	key := ObjectKey(obj)
	if key == "" {
		return
	}
	inner := s.obj[key]
	if inner == nil {
		inner = map[string]Fact{}
		s.obj[key] = inner
	}
	inner[analyzer] = f
}

// GetObject copies analyzer's fact for obj into out, which must be a pointer
// of the stored fact's concrete type, and reports whether one was found.
func (s *Set) GetObject(analyzer string, obj types.Object, out Fact) bool {
	f, ok := s.obj[ObjectKey(obj)][analyzer]
	if !ok {
		return false
	}
	ov, fv := reflect.ValueOf(out), reflect.ValueOf(f)
	if ov.Type() != fv.Type() {
		return false
	}
	ov.Elem().Set(fv.Elem())
	return true
}
