package curve

// withScalarBatchAdd runs fn with montBatchAdd's lane path switched off, so
// a test can run the scalar path on the same batch the lane path runs
// otherwise. The curve tests do not run in parallel.
func withScalarBatchAdd(fn func()) {
	saved := useLanes
	useLanes = false
	defer func() { useLanes = saved }()
	fn()
}
