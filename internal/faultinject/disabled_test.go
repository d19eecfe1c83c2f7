//go:build !faultinject

package faultinject

import "testing"

// TestDisabledBuildIsNoOp: without the faultinject tag nothing is armed,
// fired or counted, whatever plan a caller arms.
func TestDisabledBuildIsNoOp(t *testing.T) {
	if Enabled {
		t.Fatal("Enabled is true in the default build")
	}
	for _, mode := range []Mode{ModePanic, ModeError, ModeCall} {
		called := false
		Arm(Plan{Site: SitePeerDial, Hit: 1, Worker: -1, Mode: mode, Fn: func(Site, int) { called = true }})
		for range 3 {
			Fire(SitePeerDial, 0)
			if err := FireErr(SitePeerDial, 0); err != nil {
				t.Fatalf("mode %d: FireErr returned %v", mode, err)
			}
		}
		if called {
			t.Fatalf("mode %d: the plan's callback ran", mode)
		}
		if n := Hits(SitePeerDial); n != 0 {
			t.Fatalf("mode %d: Hits = %d, want 0", mode, n)
		}
		Disarm()
	}
}
