package a

import (
	"context"

	"threading/internal/sched"
	"threading/internal/worksteal"
)

// The acceptance case: an unsynchronized captured-scalar
// accumulation inside a ParallelForCtx body.
func scalarAccum(p *worksteal.Pool, xs []float64) float64 {
	sum := 0.0
	_ = p.ParallelForCtx(context.Background(), 0, len(xs), 0, func(l, h int) {
		for i := l; i < h; i++ {
			sum += xs[i] // want `unsynchronized write to captured variable "sum" inside a Pool.ParallelForCtx body`
		}
	})
	return sum
}

// IncDec on a captured counter is the same race.
func counter(p *worksteal.Pool) int {
	n := 0
	_ = p.ParallelForCtx(context.Background(), 0, 128, 0, func(l, h int) {
		for i := l; i < h; i++ {
			n++ // want `unsynchronized write to captured variable "n"`
		}
	})
	return n
}

// A write through an index unrelated to the loop range can collide.
func wrongIndex(p *worksteal.Pool, out []int, k int) {
	_ = p.ParallelForCtx(context.Background(), 0, len(out), 0, func(l, h int) {
		for i := l; i < h; i++ {
			out[k] = i // want `write to captured "out" indexed by "k", which is not derived from the loop variable`
		}
	})
}

// Captured maps race on internal state even at distinct keys.
func mapWrite(p *worksteal.Pool, m map[int]int) {
	_ = p.ParallelForCtx(context.Background(), 0, 64, 0, func(l, h int) {
		for i := l; i < h; i++ {
			m[i] = i * i // want `write to captured map "m" inside a Pool.ParallelForCtx body`
		}
	})
}

// Writes to a captured struct field are as shared as a bare scalar.
type stats struct{ total float64 }

func fieldWrite(p *worksteal.Pool, s *stats, xs []float64) {
	_ = p.ParallelForCtx(context.Background(), 0, len(xs), 0, func(l, h int) {
		for i := l; i < h; i++ {
			s.total += xs[i] // want `unsynchronized write to captured variable "s"`
		}
	})
}

// ForDAC bodies are loop bodies too.
func dacAccum(p *worksteal.Pool, xs []int) int {
	acc := 0
	p.Run(func(c *worksteal.Ctx) {
		c.ForDAC(0, len(xs), 0, func(cc *worksteal.Ctx, l, h int) {
			for i := l; i < h; i++ {
				acc += xs[i] // want `unsynchronized write to captured variable "acc" inside a Ctx.ForDAC body`
			}
		})
	})
	return acc
}

// A task spawned through a TaskScope inside a loop body runs
// concurrently with the body's other iterations. Its body captures
// the loop variable i: indexing by it stays disjoint (each iteration
// has its own i), but accumulating into a captured scalar races.
func scopeSpawnInLoop(p *worksteal.Pool, xs, out []int) int {
	acc := 0
	p.Run(func(c *worksteal.Ctx) {
		c.ForDAC(0, len(xs), 0, func(cc *worksteal.Ctx, l, h int) {
			var s sched.TaskScope = (*worksteal.Scope)(cc)
			for i := l; i < h; i++ {
				s.Spawn(func(sched.TaskScope) {
					out[i] = 2 * xs[i]
					acc += xs[i] // want `unsynchronized write to captured variable "acc" inside a Ctx.ForDAC body`
				})
			}
			s.Sync()
		})
	})
	return acc
}
