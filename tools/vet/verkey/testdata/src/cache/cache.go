// Package cache is the minimized result cache: the real
// divtopk/internal/cache.Cache reduced to its admission surface.
package cache

type Cache struct{ m map[string]any }

func New() *Cache { return &Cache{m: make(map[string]any)} }

func (c *Cache) Get(key string) (any, bool) {
	v, ok := c.m[key]
	return v, ok
}

func (c *Cache) Add(key string, v any) { c.m[key] = v }

func (c *Cache) DoStatus(key string, fn func() (any, bool, error)) (any, string, error) {
	if v, ok := c.m[key]; ok {
		return v, "hit", nil
	}
	v, _, err := fn()
	if err == nil {
		c.m[key] = v
	}
	return v, "miss", err
}

func (c *Cache) PutAdvanced(key string, v any) { c.m[key] = v }
