package models

import (
	"context"
	"testing"
)

// Prebuilt, non-capturing scope bodies: spawning them allocates
// nothing on the caller's side, so any allocation a spawn costs is the
// runtime's. scopeParent spawns and joins through the scope its own
// task was handed, so the child's scope is exercised as well as the
// root's. It joins explicitly, as the paper's Fibonacci does: an
// OpenMP task has no implicit taskwait, and a fork-join record whose
// children outlive it is left to the GC rather than recycled.
var (
	scopeLeaf   = func(TaskScope) {}
	scopeParent = func(s TaskScope) {
		s.Spawn(scopeLeaf)
		s.Sync()
	}
)

// allocsPerTaskRun measures the average heap allocations of one
// TaskRunCtx whose root spawns `parents` tasks, each spawning one
// leaf, after the runtime's arenas are warm.
func allocsPerTaskRun(m Model, parents int) float64 {
	run := func() {
		mustRun(m.TaskRunCtx(context.Background(), func(s TaskScope) {
			for i := 0; i < parents; i++ {
				s.Spawn(scopeParent)
			}
			s.Sync()
		}))
	}
	for i := 0; i < 5; i++ {
		run()
	}
	return testing.AllocsPerRun(10, run)
}

// TestTaskScopeSpawnZeroAlloc pins that a spawn through TaskScope
// allocates nothing on either task runtime: the scope is the runtime's
// native context, not a per-spawn adapter. Quadrupling the spawn count
// must not move the per-run allocation count (the fixed region and
// root-closure cost cancels in the differential).
func TestTaskScopeSpawnZeroAlloc(t *testing.T) {
	for _, name := range []string{CilkSpawn, OMPTask} {
		t.Run(name, func(t *testing.T) {
			m := MustNew(name, 2)
			defer m.Close()
			small := allocsPerTaskRun(m, 64)
			big := allocsPerTaskRun(m, 256)
			perSpawn := (big - small) / (2 * 192)
			if perSpawn > 0.05 {
				t.Errorf("TaskScope.Spawn allocates: %.3f allocs/spawn (runs: %.1f @128 spawns vs %.1f @512)",
					perSpawn, small, big)
			}
		})
	}
}
