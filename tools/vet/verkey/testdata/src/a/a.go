// Package a exercises the version-taint walk on cache admissions.
package a

import (
	"fmt"

	"cache"
)

type graph struct{ version uint64 }

func (g *graph) Version() uint64 { return g.version }

// queryKey mirrors divtopk.queryKey: the version is an explicit component.
func queryKey(version uint64, q string) string {
	return fmt.Sprintf("v=%d|%s", version, q)
}

// good flows the snapshot version through a local into the key.
func good(c *cache.Cache, g *graph, q string) (any, string, error) {
	ver := g.Version()
	key := queryKey(ver, q)
	return c.DoStatus(key, func() (any, bool, error) { return q, false, nil })
}

// goodInline derives the key in the argument itself.
func goodInline(c *cache.Cache, g *graph, q string) {
	c.Add(fmt.Sprintf("v=%d|%s", g.Version(), q), q)
}

// bad builds a key from the query alone: after a graph update the entry is
// still reachable and a stale result gets served.
func bad(c *cache.Cache, q string) (any, string, error) {
	key := fmt.Sprintf("q|%s", q)
	return c.DoStatus(key, func() (any, bool, error) { return q, false, nil }) // want `does not flow from the graph snapshot version`
}

// badGet is the lookup-side variant of the same bug.
func badGet(c *cache.Cache, q string) (any, bool) {
	return c.Get("static:" + q) // want `does not flow from the graph snapshot version`
}

// suppressed records a reviewed version-free cache: a per-snapshot cache
// whose whole instance is dropped on update does not need versioned keys.
func suppressed(c *cache.Cache, q string) (any, bool) {
	//lint:allow verkey cache instance is per-snapshot and dropped on update
	return c.Get("scoped:" + q)
}

// goodAdvanced mirrors the commit-time advance pass: the post-delta key is
// derived from the new snapshot's version before installation.
func goodAdvanced(c *cache.Cache, g2 *graph, q string, val any) {
	ver := g2.Version()
	c.PutAdvanced(queryKey(ver, q), val)
}

// badAdvanced installs an advanced entry under a version-free key: the entry
// keeps serving its pre-delta value after every later commit.
func badAdvanced(c *cache.Cache, q string, val any) {
	c.PutAdvanced("warm:"+q, val) // want `does not flow from the graph snapshot version`
}
