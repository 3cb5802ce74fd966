package core

// FoldSessions reports how many incremental sessions s retains fold
// states for — one per live plan unit it coordinates — so the no-leak
// tests, the external chaos suites among them, can assert that a failed
// or cancelled round orphans none.
func (s *Site) FoldSessions() int {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return len(s.sessions)
}

// Queued returns the number of calls currently waiting for a slot.
func (a *Admission) Queued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.waiters
}

// Generation returns the fragment generation.
func (s *Site) Generation() int64 {
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	return s.gen
}
