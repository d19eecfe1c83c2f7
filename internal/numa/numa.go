// Package numa models the dual-socket NUMA behaviour the paper analyzes in
// Section V-D (Fig. 14, Table VII). Go exposes no NUMA placement control and
// this reproduction may run on a single memory domain, so the second socket
// is simulated analytically: each socket has local and remote bandwidth and
// latency, and phase times are predicted from measured single-socket traffic
// plus a per-phase remote-access fraction. This reproduces the paper's
// finding that PB-SpGEMM's advantage shrinks on two sockets — its sort and
// compress phases consume bins that the expand phase may have placed on the
// other socket, so they run at the harmonic-mean bandwidth, while column
// algorithms keep their working column in cache and barely notice.
// See DESIGN.md §4 (substitution 3).
//
// Beside the model the package discovers the host's memory nodes from sysfs
// (Default, machine.go), for machine records only: the engine places neither
// threads nor pages by it. A pinning / first-touch / near-stealing execution
// path existed once; it only ever ran on injected topologies, never showed a
// measured win, and was deleted.
package numa

import "time"

// Topology describes a two-socket machine's memory system. The defaults are
// the paper's Table VII measurements of the dual Skylake 8160.
type Topology struct {
	LocalGBs  float64 // same-socket bandwidth, GB/s
	RemoteGBs float64 // cross-socket bandwidth, GB/s
	LocalNs   float64 // same-socket idle latency, ns
	RemoteNs  float64 // cross-socket idle latency, ns
}

// PaperSkylake is Table VII: 50.26/33.36 GB/s and 88.1/147.4 ns (averaged
// over the symmetric off-diagonal entries).
var PaperSkylake = Topology{
	LocalGBs: 50.26, RemoteGBs: 33.36,
	LocalNs: 88.1, RemoteNs: 147.4,
}

// TableVII renders the 2×2 socket matrix of (bandwidth, latency) pairs the
// paper reports; entry [i][j] is socket i accessing memory on socket j.
func (t Topology) TableVII() [2][2]Cell {
	local := Cell{GBs: t.LocalGBs, Ns: t.LocalNs}
	remote := Cell{GBs: t.RemoteGBs, Ns: t.RemoteNs}
	return [2][2]Cell{
		{local, remote},
		{remote, local},
	}
}

// Cell is one entry of the Table VII matrix.
type Cell struct {
	GBs float64
	Ns  float64
}

// EffectiveGBs returns the bandwidth a phase sustains when fraction
// remoteFrac of its traffic crosses the socket interconnect, modeled as the
// weighted harmonic mean of local and remote bandwidth (traffic-serialized
// model: total time = localBytes/localBW + remoteBytes/remoteBW).
func (t Topology) EffectiveGBs(remoteFrac float64) float64 {
	if remoteFrac < 0 {
		remoteFrac = 0
	}
	if remoteFrac > 1 {
		remoteFrac = 1
	}
	inv := (1-remoteFrac)/t.LocalGBs + remoteFrac/t.RemoteGBs
	if inv <= 0 {
		return 0
	}
	return 1 / inv
}

// PhaseTraffic is the measured single-socket byte volume and time of one
// PB-SpGEMM phase, plus the fraction of its traffic that becomes remote when
// the computation spreads over two sockets.
type PhaseTraffic struct {
	Name       string
	Bytes      int64
	SingleTime time.Duration
	RemoteFrac float64
}

// DefaultRemoteFractions returns the remote-access fractions Section V-D
// implies for PB-SpGEMM when bins are distributed across sockets: the expand
// phase writes mostly to locally-allocated bins interleaved 50/50 across
// sockets but through full-cache-line flushes (~0.5 remote), and the
// sort/compress phases pick bins dynamically, so on average half the bins a
// thread touches live on the other socket (~0.5 remote).
func DefaultRemoteFractions() map[string]float64 {
	return map[string]float64{
		"symbolic": 0.0,
		"expand":   0.5,
		"sort":     0.5,
		"compress": 0.5,
	}
}

// PredictDual predicts the dual-socket runtime of a phase set. For each
// phase, single-socket sustained bandwidth is scaled: two sockets double raw
// bandwidth (2×local), but remote traffic caps it at EffectiveGBs. The
// returned duration is the sum of predicted phase times.
//
// predictedPhase = bytes / min(2·singleGBs_effective_cap, 2·EffectiveGBs(f))
// where the single-socket sustained bandwidth also bounds per-socket
// efficiency: if the phase only sustained s GB/s of the topology's LocalGBs,
// the same efficiency ratio applies on two sockets.
func (t Topology) PredictDual(phases []PhaseTraffic) time.Duration {
	var total time.Duration
	for _, p := range phases {
		if p.Bytes == 0 || p.SingleTime <= 0 {
			total += p.SingleTime
			continue
		}
		singleGBs := float64(p.Bytes) / p.SingleTime.Seconds() / 1e9
		eff := singleGBs / t.LocalGBs // phase efficiency vs. machine peak
		if eff > 1 {
			eff = 1
		}
		dualGBs := 2 * eff * t.EffectiveGBs(p.RemoteFrac)
		if dualGBs <= 0 {
			total += p.SingleTime
			continue
		}
		total += time.Duration(float64(p.Bytes) / dualGBs / 1e9 * float64(time.Second))
	}
	return total
}

// ColumnDualSpeedup is the paper's observation for column SpGEMM on two
// sockets: the active column stays in cache, so the algorithms scale with
// cores and are "not significantly affected by cross-socket bandwidth". We
// model their dual-socket performance as a plain 2× with a small NUMA
// penalty on the streamed B and C traffic.
func (t Topology) ColumnDualSpeedup() float64 {
	// B and C streams are ~1/3 of column SpGEMM traffic in the Eq. 3 model
	// (flop + nnzB + nnzC with cf≈1); give that share the remote penalty.
	streamShare := 1.0 / 3.0
	penalty := streamShare*t.RemoteGBs/t.LocalGBs + (1 - streamShare)
	return 2 * penalty
}
