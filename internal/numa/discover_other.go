//go:build !linux

package numa

// Discover has no portable topology source off Linux; the Table VII model
// machine stands in (Source == "fallback").
func Discover() *Machine {
	return Fallback()
}
