package sim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workloads"
)

func mustSpec(t *testing.T, name string) workloads.Spec {
	t.Helper()
	spec, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCachedCellBitIdentical: a cell served from the memo must equal both
// the run that populated it and an uncached fresh re-run, bit for bit.
func TestCachedCellBitIdentical(t *testing.T) {
	ResetRunCache()
	defer ResetRunCache()
	spec := mustSpec(t, "NAS-IS")
	p := QuickParams()
	cfg := SVRConfig(16)

	first := runMatrix([]Config{cfg}, []workloads.Spec{spec}, p)
	if first.Stats.Cached != 0 || first.Stats.Cells != 1 {
		t.Fatalf("first run: %+v", first.Stats)
	}
	second := runMatrix([]Config{cfg}, []workloads.Spec{spec}, p)
	if second.Stats.Cached != 1 {
		t.Fatalf("second run not cached: %+v", second.Stats)
	}
	a, _ := first.Get("SVR16", "NAS-IS")
	b, _ := second.Get("SVR16", "NAS-IS")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("cached cell differs from original:\n%+v\nvs\n%+v", a, b)
	}
	// Run() bypasses the cache entirely; the memoized record must match a
	// genuine re-simulation exactly.
	fresh := Run(spec, cfg, p)
	if !reflect.DeepEqual(a, fresh) {
		t.Errorf("cached cell differs from fresh uncached run:\n%+v\nvs\n%+v", a, fresh)
	}
}

// TestCacheKeyIgnoresLabel: sweeps relabel the default configuration all
// the time; the display label must not split the cache.
func TestCacheKeyIgnoresLabel(t *testing.T) {
	ResetRunCache()
	defer ResetRunCache()
	spec := mustSpec(t, "Randacc")
	p := QuickParams()

	runMatrix([]Config{SVRConfig(16)}, []workloads.Spec{spec}, p)
	relabeled := SVRConfig(16)
	relabeled.Label = "SVR16-m16-p4"
	rs := runMatrix([]Config{relabeled}, []workloads.Spec{spec}, p)
	if rs.Stats.Cached != 1 {
		t.Errorf("relabeled config missed the cache: %+v", rs.Stats)
	}
	res, ok := rs.Get("SVR16-m16-p4", "Randacc")
	if !ok || res.Label != "SVR16-m16-p4" {
		t.Errorf("cached result not relabeled: %+v ok=%v", res.Label, ok)
	}
}

// TestCacheKeySplitsOnConfigAndParams: distinct machines or windows must
// never share a cell.
func TestCacheKeySplitsOnConfigAndParams(t *testing.T) {
	p := QuickParams()
	base := hashCell(SVRConfig(16), "NAS-IS", p)
	if hashCell(SVRConfig(32), "NAS-IS", p) == base {
		t.Error("vector length not in the key")
	}
	if hashCell(SVRConfig(16), "Randacc", p) == base {
		t.Error("workload not in the key")
	}
	p2 := p
	p2.Measure++
	if hashCell(SVRConfig(16), "NAS-IS", p2) == base {
		t.Error("window not in the key")
	}
	relabeled := SVRConfig(16)
	relabeled.Label = "anything"
	if hashCell(relabeled, "NAS-IS", p) != base {
		t.Error("label must not be in the key")
	}
}

func TestRunCacheDisabled(t *testing.T) {
	ResetRunCache()
	prev := SetRunCacheEnabled(false)
	defer func() {
		SetRunCacheEnabled(prev)
		ResetRunCache()
	}()
	spec := mustSpec(t, "Randacc")
	p := QuickParams()
	runMatrix([]Config{MachineConfig(InO)}, []workloads.Spec{spec}, p)
	rs := runMatrix([]Config{MachineConfig(InO)}, []workloads.Spec{spec}, p)
	if rs.Stats.Cached != 0 {
		t.Errorf("disabled cache served a cell: %+v", rs.Stats)
	}
}

func TestProgressHook(t *testing.T) {
	ResetRunCache()
	defer ResetRunCache()
	var events []CellEvent
	SetProgressHook(func(ev CellEvent) { events = append(events, ev) })
	defer SetProgressHook(nil)

	specs := []workloads.Spec{mustSpec(t, "NAS-IS"), mustSpec(t, "Randacc")}
	cfgs := []Config{MachineConfig(InO), MachineConfig(OoO)}
	runMatrix(cfgs, specs, QuickParams())

	if len(events) != len(cfgs)*len(specs) {
		t.Fatalf("got %d events, want %d", len(events), len(cfgs)*len(specs))
	}
	last := events[len(events)-1]
	if last.Done != 4 || last.Cells != 4 {
		t.Errorf("final event %+v, want Done=Cells=4", last)
	}
	for i, ev := range events {
		if ev.Done != i+1 {
			t.Errorf("event %d has Done=%d (must be sequential)", i, ev.Done)
		}
	}
}

func TestResultSetAccessors(t *testing.T) {
	ResetRunCache()
	defer ResetRunCache()
	spec := mustSpec(t, "HJ2")
	rs := runMatrix([]Config{MachineConfig(InO), SVRConfig(16)},
		[]workloads.Spec{spec}, QuickParams())

	if _, ok := rs.Get("SVR16", "HJ2"); !ok {
		t.Error("Get missed an existing cell")
	}
	if _, ok := rs.Get("SVR16", "nope"); ok {
		t.Error("Get found a nonexistent cell")
	}
	if row := rs.Row("in-order"); len(row) != 1 || row["HJ2"].Instrs == 0 {
		t.Errorf("Row(in-order) = %+v", row)
	}
	cells := rs.Cells()
	if rs.Stats.Cells != 2 || len(cells) != 2 {
		t.Fatalf("%d cells recorded, stats %+v", len(cells), rs.Stats)
	}
	for i, c := range cells {
		if res, _ := rs.Get(c.Label, c.Workload); c.Seq != i || c.Workload != "HJ2" || !reflect.DeepEqual(c.Result, res) {
			t.Errorf("cell %d: %+v", i, c)
		}
	}
}

func TestNewMachineUnknownKind(t *testing.T) {
	spec := mustSpec(t, "HJ2")
	inst := spec.Build(workloads.TinyScale())
	if _, err := NewMachine(Config{Core: CoreKind(99)}, inst); err == nil {
		t.Fatal("expected error for an unknown core kind")
	}
}

// TestMachinesMatchRun: Simulate over the Machine layer must reproduce
// Run exactly for every kind.
func TestMachinesMatchRun(t *testing.T) {
	spec := mustSpec(t, "Randacc")
	p := QuickParams()
	for _, cfg := range []Config{
		MachineConfig(InO), MachineConfig(IMP), MachineConfig(OoO), SVRConfig(16),
	} {
		m, err := NewMachine(cfg, spec.Build(p.Scale))
		if err != nil {
			t.Fatal(err)
		}
		got := Simulate(m, p)
		want := Run(spec, cfg, p)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Machine result diverges from Run", cfg.Label)
		}
	}
}

func TestGetExperimentUnknownListsIDs(t *testing.T) {
	_, err := GetExperiment("definitely-not-registered")
	if err == nil {
		t.Fatal("expected error")
	}
	if msg := err.Error(); !strings.Contains(msg, "fig1") || !strings.Contains(msg, "have") {
		t.Errorf("error should list known ids: %v", msg)
	}
}

func TestReportJSON(t *testing.T) {
	r := runTable2(ExpParams{})
	blob, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ID     string
		Values map[string]float64
		Sched  SchedStats
	}
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("invalid report JSON: %v", err)
	}
	if decoded.ID != "table2" || decoded.Values["kib.16"] == 0 {
		t.Errorf("JSON content: %+v", decoded)
	}
}
