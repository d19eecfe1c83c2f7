package faultinject

import "testing"

// TestPlanFromSeedDeterministic: a seed alone names its plan — the same seed
// gives the same plan every time, drawn from the in-kernel sites with a hit in
// [1, 13], any worker, panic mode — and the seeds reach every in-kernel site.
func TestPlanFromSeedDeterministic(t *testing.T) {
	kernelSites := map[Site]bool{SiteExpandColumn: true, SiteSortTask: true, SiteFoldBin: true,
		SiteAssembleBin: true, SiteGrow: true}
	seen := map[Site]bool{}
	for seed := uint64(0); seed < 4096; seed += 7 {
		p, q := PlanFromSeed(seed), PlanFromSeed(seed)
		if p.Site != q.Site || p.Hit != q.Hit || p.Every != q.Every || p.Worker != q.Worker || p.Mode != q.Mode {
			t.Fatalf("seed %d: %+v then %+v", seed, p, q)
		}
		if !kernelSites[p.Site] || p.Hit < 1 || p.Hit > 13 || p.Worker != -1 || p.Mode != ModePanic || p.Fn != nil {
			t.Fatalf("seed %d: plan %+v is not an in-kernel panic plan", seed, p)
		}
		seen[p.Site] = true
	}
	if len(seen) != len(kernelSites) {
		t.Fatalf("seeds reached %d of %d in-kernel sites", len(seen), len(kernelSites))
	}
}

// TestSiteNames: every site has a name of its own, which a Fault carries.
func TestSiteNames(t *testing.T) {
	names := map[string]Site{}
	for s := Site(0); s < NumSites; s++ {
		name := s.String()
		if name == "unknown-site" {
			t.Fatalf("site %d has no name", s)
		}
		if prev, dup := names[name]; dup {
			t.Fatalf("sites %d and %d are both %q", prev, s, name)
		}
		names[name] = s
		if got := (Fault{Site: s}).Error(); got != "faultinject: injected fault at "+name {
			t.Fatalf("Fault at %v reads %q", s, got)
		}
	}
	if NumSites.String() != "unknown-site" {
		t.Fatal("NumSites is not a site")
	}
}
