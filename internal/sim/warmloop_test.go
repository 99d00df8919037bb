package sim

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
)

// referenceWarm is the per-instruction warm loop a warmed FastForward
// must match: it steps the emulator one instruction at a time and
// reports each instruction's fetch, then its own event, straight to the
// hierarchy and predictor, with no folding.
func referenceWarm(b *machineBase, n uint64) {
	var rec emu.DynInstr
	for i := uint64(0); i < n && b.cpu.Step(&rec); i++ {
		b.h.WarmFetchInstr(fetchAddr(rec.PC))
		switch rec.Instr.Kind() {
		case isa.KindLoad:
			b.h.WarmAccess(rec.PC, rec.Addr, false)
		case isa.KindStore:
			b.h.WarmAccess(rec.PC, rec.Addr, true)
		case isa.KindBranch:
			b.bp.Predict(rec.PC, rec.Taken)
		}
	}
}

// TestWarmLoopMatchesReference: after N warmed instructions the folded
// warm loop leaves exactly the hierarchy the per-instruction reference
// leaves: every way's tag, LRU stamp, dirty, touched and prefetch bits,
// the LRU clocks, TLB slots and stamps, stride entries, prefetch tags
// and every counter, plus identical predictor tables. The one-line L1-I
// is the geometry where a fetch's next-line fill evicts its own line,
// so nothing may be folded there.
func TestWarmLoopMatchesReference(t *testing.T) {
	const n = 150_000
	oneLine := MachineConfig(InO)
	oneLine.Hier.L1ISize, oneLine.Hier.L1IWays = cache.LineSize, 1
	if err := oneLine.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		wl  string
		cfg Config
	}{
		{"BFS_KR", SVRConfig(16)},
		{"NAS-IS", SVRConfig(16)},
		{"HJ8", SVRConfig(16)},
		{"HJ8", MachineConfig(OoO)},
		{"BFS_KR", oneLine},
	}
	for _, tc := range cases {
		master := mustSpec(t, tc.wl).Build(QuickParams().Scale)
		ref, err := NewMachine(tc.cfg, cloneInstance(master))
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewMachine(tc.cfg, cloneInstance(master))
		if err != nil {
			t.Fatal(err)
		}
		rb, gb := ref.base(), got.base()
		// Two calls, so a fetch run open at the first call's end is
		// flushed and the second call starts a new one.
		referenceWarm(rb, n)
		gb.FastForward(n/3, true)
		gb.FastForward(n-n/3, true)

		name := tc.cfg.Label + "/" + tc.wl
		if rb.cpu.SaveArch() != gb.cpu.SaveArch() {
			t.Fatalf("%s: architectural state diverges", name)
		}
		if !reflect.DeepEqual(rb.h.WarmState(), gb.h.WarmState()) {
			t.Errorf("%s: warmed hierarchy state diverges from the per-instruction reference", name)
		}
		if rs, gs := rb.h.Reg.Snapshot(), gb.h.Reg.Snapshot(); !reflect.DeepEqual(rs, gs) {
			t.Errorf("%s: hierarchy counters diverge:\n reference %v\n warm loop %v", name, rs, gs)
		}
		if !rb.bp.StateEqual(gb.bp) || rb.bp.Lookups != gb.bp.Lookups || rb.bp.Mispredict != gb.bp.Mispredict {
			t.Errorf("%s: branch predictor diverges", name)
		}
	}
}
