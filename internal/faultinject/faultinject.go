// Package faultinject is the deterministic fault-injection registry behind
// the chaos suite: tests arm a plan (panic worker w the Nth time site S is
// reached, slow a worker down, force a cancellation, simulate an allocation
// failure) and the instrumented hot paths fire it at named sites. Without the
// `faultinject` build tag the package compiles to nothing — Enabled is a
// false constant, every `if faultinject.Enabled { faultinject.Fire(...) }`
// guard is dead code the compiler deletes, and production binaries carry
// zero overhead (the bench gate proves it).
//
// Determinism: a plan is a pure function of its fields, sites count hits with
// a per-site counter, and PlanFromSeed derives plans from an integer seed —
// the chaos fuzzer replays any failure from its seed alone.
package faultinject

// Site names an instrumented point in the pipeline. Sites identify *where* a
// fault lands; the plan decides what happens there.
type Site uint8

const (
	// SiteExpandColumn fires once per column of A processed by an expand
	// worker, in every tuple layout.
	SiteExpandColumn Site = iota
	// SiteSortTask fires once per fuse-phase task: one bin taken by a worker.
	SiteSortTask
	// SiteFoldBin fires once per bin folded whole (the fused sort and fold of
	// one bin), right before its kernel runs.
	SiteFoldBin
	// SiteAssembleBin fires once per copy of folded tuples into the output
	// CSR: a group's compacted head, and each bin its fold left in place.
	SiteAssembleBin
	// SiteGrow fires before the engine grows its tuple arenas — the place a
	// real allocation failure would surface.
	SiteGrow
	// SiteServeHandler fires at the top of the serve layer's multiply
	// handler, inside the recovery middleware's scope.
	SiteServeHandler
	// SitePeerDial fires before every HTTP exchange the peer client opens
	// to a remote pbspgemmd (upload, multiply, health probe) — the place a
	// refused connection or dead peer surfaces. FireErr sites: ModeError
	// returns the fault as a connect-style error instead of panicking.
	SitePeerDial
	// SiteBlockRPC fires before the shard coordinator dispatches one block
	// multiply attempt to a backend (local pool or remote peer). ModeError
	// injects a retryable dispatch failure, ModeSleep a straggling backend.
	SiteBlockRPC
	// SiteReduce fires once per C(i,j) block as the coordinator reduces its
	// partial products over k — a local failure after all remote work
	// succeeded, probing the never-partial guarantee.
	SiteReduce
	// SiteColumnRow fires once per output row folded by a worker of the
	// one-pass SPA kernel (internal/baseline).
	SiteColumnRow
	// NumSites bounds the Site space for fuzzers that map bytes to sites.
	NumSites
)

// String names the site for error messages and chaos-test logs.
func (s Site) String() string {
	switch s {
	case SiteExpandColumn:
		return "expand-column"
	case SiteSortTask:
		return "sort-task"
	case SiteFoldBin:
		return "fold-bin"
	case SiteAssembleBin:
		return "assemble-bin"
	case SiteGrow:
		return "grow"
	case SiteServeHandler:
		return "serve-handler"
	case SitePeerDial:
		return "peer-dial"
	case SiteBlockRPC:
		return "block-rpc"
	case SiteReduce:
		return "reduce"
	case SiteColumnRow:
		return "column-row"
	default:
		return "unknown-site"
	}
}

// Mode is what happens when an armed plan's site reaches its hit count.
type Mode uint8

const (
	// ModePanic panics the hitting goroutine with a Fault value — the
	// containment layer must turn it into a typed *par.PanicError.
	ModePanic Mode = iota
	// ModeSleep delays the hitting goroutine by Plan.Sleep — an injected
	// slow worker, for probing cancellation latency and idle-loop behavior.
	ModeSleep
	// ModeCall invokes Plan.Fn on the hitting goroutine — tests use it to
	// force a cancellation (cancel a context from inside a phase) or to
	// observe exactly when a site is reached.
	ModeCall
	// ModeError makes FireErr return the Fault as an error instead of
	// panicking — the shape of a failed RPC or refused connection. Sites
	// instrumented with Fire (not FireErr) treat it as a no-op.
	ModeError
)

// Fault is the value ModePanic panics with; carrying the site makes chaos
// assertions ("the typed error names the injected site") possible.
type Fault struct {
	Site   Site
	Worker int
}

func (f Fault) Error() string {
	return "faultinject: injected fault at " + f.Site.String()
}

// Plan says where, when and what to inject. The zero plan panics worker 0 at
// the first SiteExpandColumn hit.
type Plan struct {
	// Site is the instrumented point the plan watches.
	Site Site
	// Hit is which occurrence triggers (1 = first; 0 means first too).
	// Occurrences are counted per site across all workers.
	Hit int64
	// Every, when > 0, re-triggers the plan on occurrence Hit and every
	// Every-th occurrence after it, instead of exactly once — a flaky peer
	// (ModeError, Every=2 fails every other RPC) or a persistently slow one
	// (ModeSleep, Every=1 delays every block).
	Every int64
	// Worker restricts the trigger to one worker id; -1 matches any.
	Worker int
	// Mode selects panic / sleep / call.
	Mode Mode
	// SleepNanos is ModeSleep's delay.
	SleepNanos int64
	// Fn is ModeCall's callback.
	Fn func(site Site, worker int)
}

// PlanFromSeed derives a deterministic plan from a fuzz seed: site, hit
// count and worker filter are simple moduli of the seed's fields, so any
// chaos-suite failure replays from the integer alone. Only in-kernel sites
// are drawn (the serve site needs an HTTP harness).
func PlanFromSeed(seed uint64) Plan {
	sites := [...]Site{SiteExpandColumn, SiteSortTask, SiteFoldBin, SiteAssembleBin, SiteGrow}
	return Plan{
		Site:   sites[seed%uint64(len(sites))],
		Hit:    int64(seed>>8%13) + 1,
		Worker: -1,
		Mode:   ModePanic,
	}
}
