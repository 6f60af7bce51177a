package server

// QueuedUpdates reports how many updates of graph name wait in its
// coalescer's queue, behind the commit in flight.
func (s *Server) QueuedUpdates(name string) int {
	s.mu.Lock()
	c := s.coal[name]
	s.mu.Unlock()
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}
