package idindex

// SetGeneration sets x's generation stamp, so a test can reach the wrap
// without 2^32 Resets.
func SetGeneration(x *Index, gen uint32) { x.gen = gen }
