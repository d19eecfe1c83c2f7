//go:build faultinject

package faultinject

import (
	"errors"
	"testing"
)

// arm installs p for the test and disarms when it ends.
func arm(t *testing.T, p Plan) {
	t.Helper()
	Arm(p)
	t.Cleanup(Disarm)
}

// TestArmHitsDisarm: Hits counts one site's occurrences since the last Arm,
// armed or not, and Disarm stops the plan from firing but not the count.
func TestArmHitsDisarm(t *testing.T) {
	if !Enabled {
		t.Fatal("Enabled is false under the faultinject tag")
	}
	calls := 0
	count := func(Site, int) { calls++ }
	arm(t, Plan{Site: SiteGrow, Hit: 2, Worker: -1, Mode: ModeCall, Fn: count})
	for range 3 {
		Fire(SiteGrow, 0)
	}
	Fire(SiteFoldBin, 0)
	if Hits(SiteGrow) != 3 || Hits(SiteFoldBin) != 1 || Hits(SiteSortTask) != 0 {
		t.Fatalf("hits grow %d, fold %d, sort %d; want 3, 1, 0", Hits(SiteGrow), Hits(SiteFoldBin), Hits(SiteSortTask))
	}
	if calls != 1 {
		t.Fatalf("plan fired %d times, want once (at hit 2)", calls)
	}
	Arm(Plan{Site: SiteGrow, Hit: 1, Worker: -1, Mode: ModeCall, Fn: count})
	if Hits(SiteGrow) != 0 || Hits(SiteFoldBin) != 0 {
		t.Fatal("Arm did not reset the hit counters")
	}
	Disarm()
	Fire(SiteGrow, 0)
	if Hits(SiteGrow) != 1 || calls != 1 {
		t.Fatalf("after Disarm: hits %d, calls %d; want 1, 1", Hits(SiteGrow), calls)
	}
}

// TestHitAndWorkerFilter: a plan fires at occurrence Hit of its site — counted
// across workers — only on its Worker (any, at -1), and with Every on every
// Every-th occurrence after Hit. Hit 0 means the first occurrence.
func TestHitAndWorkerFilter(t *testing.T) {
	for _, c := range []struct {
		name    string
		plan    Plan
		workers []int // the worker of occurrence 1, 2, ...
		want    []int // the occurrences that fire
	}{
		{"hit 3, any worker", Plan{Hit: 3, Worker: -1}, []int{0, 1, 0, 1, 0}, []int{3}},
		{"hit 3, worker 1", Plan{Hit: 3, Worker: 1}, []int{0, 0, 1, 1, 1}, []int{3}},
		{"hit 3 lands on another worker", Plan{Hit: 3, Worker: 1}, []int{1, 1, 0, 1, 1}, nil},
		{"hit 0 is the first", Plan{Worker: -1}, []int{2, 2, 2}, []int{1}},
		{"hit 2, every 3", Plan{Hit: 2, Every: 3, Worker: -1}, []int{0, 0, 0, 0, 0, 0, 0, 0, 0}, []int{2, 5, 8}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var fired []int
			p := c.plan
			p.Site, p.Mode = SiteSortTask, ModeCall
			p.Fn = func(s Site, w int) {
				if s != SiteSortTask {
					t.Fatalf("callback at %v", s)
				}
				fired = append(fired, int(Hits(SiteSortTask)))
			}
			arm(t, p)
			for _, w := range c.workers {
				Fire(SiteExpandColumn, w) // another site's hits never count toward the plan's
				Fire(SiteSortTask, w)
			}
			if len(fired) != len(c.want) {
				t.Fatalf("fired at occurrences %v, want %v", fired, c.want)
			}
			for i := range fired {
				if fired[i] != c.want[i] {
					t.Fatalf("fired at occurrences %v, want %v", fired, c.want)
				}
			}
		})
	}
}

// TestFireErrReturnsFault: in ModeError, FireErr returns the Fault at the
// plan's occurrence — an error errors.As finds, naming site and worker — and
// Fire treats the mode as a no-op.
func TestFireErrReturnsFault(t *testing.T) {
	arm(t, Plan{Site: SitePeerDial, Hit: 2, Worker: -1, Mode: ModeError})
	if err := FireErr(SitePeerDial, 4); err != nil {
		t.Fatalf("occurrence 1 returned %v", err)
	}
	err := FireErr(SitePeerDial, 4)
	var f Fault
	if !errors.As(err, &f) || f.Site != SitePeerDial || f.Worker != 4 {
		t.Fatalf("occurrence 2 returned %v, want the Fault at peer-dial on worker 4", err)
	}
	if err := FireErr(SitePeerDial, 4); err != nil {
		t.Fatalf("occurrence 3 returned %v; the plan fires once", err)
	}
	arm(t, Plan{Site: SitePeerDial, Hit: 1, Worker: -1, Mode: ModeError})
	Fire(SitePeerDial, 0) // no panic, no error to return
	if Hits(SitePeerDial) != 1 {
		t.Fatal("Fire did not count the occurrence")
	}
}

// panicOf runs f and returns what it panicked with, nil if it returned.
func panicOf(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestPanicModePanicsWithFault: in ModePanic both Fire and FireErr panic with
// the Fault of the occurrence that triggered, and only on the plan's worker.
func TestPanicModePanicsWithFault(t *testing.T) {
	for name, fire := range map[string]func(Site, int){
		"Fire":    Fire,
		"FireErr": func(s Site, w int) { _ = FireErr(s, w) },
	} {
		t.Run(name, func(t *testing.T) {
			arm(t, Plan{Site: SiteAssembleBin, Hit: 1, Worker: 2, Mode: ModePanic})
			if r := panicOf(func() { fire(SiteAssembleBin, 1) }); r != nil {
				t.Fatalf("occurrence 1 on worker 1 panicked with %v", r)
			}
			arm(t, Plan{Site: SiteAssembleBin, Hit: 1, Worker: 2, Mode: ModePanic})
			f, ok := panicOf(func() { fire(SiteAssembleBin, 2) }).(Fault)
			if !ok || f.Site != SiteAssembleBin || f.Worker != 2 {
				t.Fatalf("recovered %v, want the Fault at assemble-bin on worker 2", f)
			}
		})
	}
}
