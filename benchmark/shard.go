package main

import (
	"fmt"
	"time"

	"pbspgemm"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/shard"
)

type shardRun struct {
	eng   *pbspgemm.Engine
	coord *shard.Coordinator
	a, b  *pbspgemm.CSR
	// want is the direct PB product, itself checked against Reference.
	want  *pbspgemm.CSR
	flops int64

	first, last *pbspgemm.CSR
	res         *shard.Result // of the latest operation
	retries     int64
	hedges      int64
	fallbacks   int64
	ops         int64
}

func setupShard(c config) (runner, setupInfo, error) {
	s := &shardRun{}
	var info setupInfo
	t := time.Now()
	scale := c.pick(15, 10)
	s.a, s.b = gen.ERMatrix(scale, 8, c.seed+1), gen.ERMatrix(scale, 8, c.seed+2)
	info.genS = time.Since(t).Seconds()

	var err error
	if s.eng, err = pbspgemm.NewEngine(); err != nil {
		return nil, info, err
	}
	t = time.Now()
	direct, err := s.direct()
	if err != nil {
		return nil, info, err
	}
	s.want, s.flops = direct.C, countFlops(s.a, s.b)
	if err := sameProduct(s.want, pbspgemm.Reference(s.a, s.b)); err != nil {
		return nil, info, fmt.Errorf("direct product: %w", err)
	}
	info.oracleS = time.Since(t).Seconds()
	info.flopsPerOp = s.flops

	// 4 MiB blocks cut the full-size pair into a 4x4x2 grid.
	if s.coord, err = shard.New(shard.Config{Local: s.eng, MaxBlockBytes: int64(c.pick(4<<20, 128<<10))}); err != nil {
		return nil, info, err
	}
	for i := 0; i < 2; i++ {
		if err := s.op(nil, -1, i); err != nil {
			return nil, info, fmt.Errorf("warm-up: %w", err)
		}
	}
	*s = shardRun{eng: s.eng, coord: s.coord, a: s.a, b: s.b, want: s.want, flops: s.flops}
	return s, info, nil
}

func (s *shardRun) direct() (*pbspgemm.Result, error) {
	return s.eng.Multiply(ctx, s.a, s.b, pbspgemm.WithAlgorithm(pbspgemm.PB))
}

func (s *shardRun) op(tr *tracer, parent, i int) error {
	sp := tr.begin("shard.multiply", parent, i)
	res, err := s.coord.Multiply(ctx, s.a, s.b)
	tr.end(sp)
	if err != nil {
		return err
	}
	s.res, s.last = res, res.C
	if s.first == nil {
		s.first = res.C
	}
	s.ops++
	s.retries += res.Retries
	s.hedges += res.Hedges
	s.fallbacks += res.Fallbacks
	if res.C.NumRows != s.want.NumRows || res.C.NNZ() != s.want.NNZ() || res.Flops != s.flops {
		return fmt.Errorf("sharded product has %d rows, %d entries, %d flops; direct %d rows, %d entries, %d flops",
			res.C.NumRows, res.C.NNZ(), res.Flops, s.want.NumRows, s.want.NNZ(), s.flops)
	}
	return nil
}

func (s *shardRun) verify() error {
	if err := sameProduct(s.first, s.want); err != nil {
		return fmt.Errorf("first sharded product: %w", err)
	}
	if err := sameProduct(s.last, s.want); err != nil {
		return fmt.Errorf("last sharded product: %w", err)
	}
	return nil
}

func (s *shardRun) notes(n map[string]string) {
	if s.res != nil {
		n["grid"] = s.res.Grid.String()
	}
}

func (s *shardRun) close() {}

func (s *shardRun) layers(tr *tracer, opP50 float64, out map[string]float64) error {
	blocks := float64(s.res.Blocks)
	out["shard.blocks"] = blocks
	out["shard.attempts_per_block"] = (blocks*float64(s.ops) + float64(s.retries)) / (blocks * float64(s.ops))
	out["shard.hedges_per_op"] = float64(s.hedges) / float64(s.ops)
	out["shard.fallbacks_per_op"] = float64(s.fallbacks) / float64(s.ops)

	// The same pair direct and sharded, interleaved op by op.
	var directMs, shardMs []float64
	for i := 0; i < probeReps; i++ {
		d, err := timeMs(tr, "engine.call.direct", 1, func() error { _, err := s.direct(); return err })
		if err != nil {
			return err
		}
		sh, err := timeMs(tr, "shard.multiply.interleaved", 1, func() error { return s.op(nil, -1, -1) })
		if err != nil {
			return err
		}
		directMs, shardMs = append(directMs, d), append(shardMs, sh)
	}
	out["shard.vs_direct"] = median(shardMs) / median(directMs)

	// The coordinator's steps, each repeated alone at the final grid.
	var gp *pbspgemm.GridPlan
	var err error
	if out["shard.planblocks_ms"], err = timeMs(tr, "shard.planblocks", 3, func() error {
		var err error
		gp, err = s.eng.PlanBlocks(ctx, s.a, s.b, s.res.Grid)
		return err
	}); err != nil {
		return err
	}
	planMs, err := timeMs(tr, "engine.plan.blocks", 3, func() error {
		for _, blk := range gp.Blocks {
			if _, err := s.eng.Plan(ctx, blk.A, blk.B); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["engine.plan_ms"] = planMs / blocks
	// PlanBlocks cuts the blocks and plans each; the cut is what is left.
	out["matrix.block_extract_ms"] = out["shard.planblocks_ms"] - planMs

	partials := make([]*pbspgemm.CSR, len(gp.Blocks))
	if out["shard.blocks_serial_ms"], err = timeMs(tr, "shard.blocks_serial", 3, func() error {
		for i, blk := range gp.Blocks {
			res, err := s.eng.Multiply(ctx, blk.A, blk.B, pbspgemm.WithAlgorithm(pbspgemm.PB))
			if err != nil {
				return err
			}
			partials[i] = res.C
		}
		return nil
	}); err != nil {
		return err
	}
	// Blocks are laid out k fastest: C(i,j)'s partials are a contiguous run.
	inner := gp.Grid.Inner
	if out["shard.reduce_ms"], err = timeMs(tr, "shard.reduce", 3, func() error {
		for base := 0; base < len(partials); base += inner {
			acc := pbspgemm.Float64Matrix(partials[base])
			for k := 1; k < inner; k++ {
				if acc, err = pbspgemm.EWiseAdd(pbspgemm.Arithmetic(), acc, pbspgemm.Float64Matrix(partials[base+k])); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	out["shard.residual_ms"] = opP50 - out["shard.planblocks_ms"] - out["shard.blocks_serial_ms"] - out["shard.reduce_ms"]
	return nil
}
