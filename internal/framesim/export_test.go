package framesim

// NewSparseDrainAt is NewSparse with the dense-drain threshold set to
// threshold instead of denseThreshold (0 keeps the default), so tests
// can force the walker's mid-tape drain.
func NewSparseDrainAt(cfg Config, threshold int) (*Engine, error) {
	e, err := NewSparse(cfg)
	if err == nil && threshold > 0 {
		e.threshold = threshold
	}
	return e, err
}
