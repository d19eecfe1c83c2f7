package matrix

// Grow-only buffer helpers shared by the pooled execution engines
// (internal/core's and internal/baseline's Workspaces) and this
// package's Into-style converters: return (*buf)[:n], reallocating only when
// capacity is short. Contents are unspecified unless the Zero variant is
// used.

// Grow returns (*buf)[:n] with unspecified contents, for any element type; a
// reallocation is zeroed.
func Grow[E any](buf *[]E, n int) []E {
	if cap(*buf) < n {
		*buf = make([]E, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// GrowInt64 returns (*buf)[:n] with unspecified contents.
func GrowInt64(buf *[]int64, n int) []int64 {
	if cap(*buf) < n {
		*buf = make([]int64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// GrowInt64Zero is GrowInt64 with the returned slice zeroed.
func GrowInt64Zero(buf *[]int64, n int) []int64 {
	s := GrowInt64(buf, n)
	clear(s)
	return s
}

// GrowInt32 returns (*buf)[:n] with unspecified contents.
func GrowInt32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// GrowUint64 returns (*buf)[:n] with unspecified contents.
func GrowUint64(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// GrowInt returns (*buf)[:n] with unspecified contents.
func GrowInt(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// GrowFloat64 returns (*buf)[:n] with unspecified contents.
func GrowFloat64(buf *[]float64, n int64) []float64 {
	if int64(cap(*buf)) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
