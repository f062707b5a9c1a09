package sacct

// setSealLimits lowers the in-memory row count that seals a month and the
// segment count that folds one, so a test of a few hundred rows reaches
// both.
func (s *Store) setSealLimits(rows, segments int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limits = sealLimits{rows: rows, segments: segments}
}
