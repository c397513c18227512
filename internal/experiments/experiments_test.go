package experiments

import (
	"slices"
	"strings"
	"testing"

	"neutronstar/internal/nn"
)

// The experiment functions are exercised at QuickScale so the suite stays
// fast; the full-scale runs live in cmd/nsbench.

// TestAllNames pins the experiment table: every -exp value, in the order
// `nsbench -exp all` runs them.
func TestAllNames(t *testing.T) {
	want := []string{"table2", "fig2a", "fig2b", "fig2c", "fig9", "table3",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "table4", "table5",
		"ablations"}
	var got []string
	for _, x := range All {
		got = append(got, x.Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("experiments = %v, want %v", got, want)
	}
}

func TestTable2(t *testing.T) {
	rows := Table2()
	if len(rows) != 11 { // header + 10 datasets
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.Contains(rows[1], "google") {
		t.Fatalf("first data row = %q", rows[1])
	}
}

func TestFig2Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	sc := QuickScale()
	for _, r := range Fig2a(sc) {
		if r.Values["depcache_ms"] <= 0 || r.Values["depcomm_ms"] <= 0 {
			t.Fatalf("non-positive timing: %+v", r)
		}
	}
	rows := Fig2c(sc)
	if len(rows) != 2 || rows[0].Label != "ecs" || rows[1].Label != "ibv" {
		t.Fatalf("fig2c rows: %+v", rows)
	}
}

func TestFig9Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	sc := QuickScale()
	sc.Graphs = []string{"google"}
	rows := Fig9(sc)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, k := range rows[0].Order {
		if rows[0].Values[k] <= 0 {
			t.Fatalf("column %s not positive: %+v", k, rows[0])
		}
	}
}

func TestTable3Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	sc := QuickScale()
	sc.Graphs = []string{"google"}
	rows := Table3(sc, 2)
	if len(rows) != 1 || rows[0].Values["preprocess_ms"] < 0 {
		t.Fatalf("table3 rows: %+v", rows)
	}
}

func TestFig10Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	sc := QuickScale()
	sc.Graphs = []string{"google"}
	rows := Fig10(sc)
	if len(rows) != 3 { // 3 models x 1 graph
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if strings.HasPrefix(r.Label, string(nn.GAT)) {
			if r.Values["roc_ms"] != 0 {
				t.Fatalf("ROC should not run GAT: %+v", r)
			}
		} else if r.Values["roc_ms"] <= 0 {
			t.Fatalf("roc missing: %+v", r)
		}
		if r.Values["hybrid_ms"] <= 0 || r.Values["distdgl_ms"] <= 0 {
			t.Fatalf("missing columns: %+v", r)
		}
	}
}

func TestFig11Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	sc := QuickScale()
	rows := Fig11(sc, nn.GCN, "google")
	if len(rows) != 6 { // 5 ratios + greedy
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[5].Label != "greedy(auto)" {
		t.Fatalf("last row = %s", rows[5].Label)
	}
	// The busy columns come from the run's class-bearing spans; even the
	// all-cached run synchronises gradients.
	for _, r := range rows[:5] {
		if r.Values["comm_busy_ms"] <= 0 || r.Values["compute_busy_ms"] <= 0 {
			t.Fatalf("%s: busy columns %v", r.Label, r.Values)
		}
	}
}

func TestFig12Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	rows := Fig12(QuickScale(), "google", []int{1, 2})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFig13Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	sc := QuickScale()
	reps := Fig13(sc, "google")
	if len(reps) != 5 {
		t.Fatalf("systems = %d", len(reps))
	}
	byName := map[string]UtilizationReport{}
	for _, r := range reps {
		byName[r.System] = r
	}
	// DepCache must show the highest accelerator utilisation (pure compute),
	// DistDGL must show sampling time; these are Fig 13's headline shapes.
	if byName["depcache"].AcceleratorUtil <= byName["distdgl"].AcceleratorUtil {
		t.Fatalf("depcache accel %v <= distdgl %v",
			byName["depcache"].AcceleratorUtil, byName["distdgl"].AcceleratorUtil)
	}
	if byName["distdgl"].SampleUtil <= 0 {
		t.Fatal("distdgl recorded no sampling time")
	}
	if byName["depcache"].TotalRecvMB >= byName["depcomm"].TotalRecvMB {
		t.Fatal("depcache moved more data than depcomm")
	}
}

func TestFig14Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	sc := QuickScale()
	curves := Fig14(sc, 4, 2, 0.99)
	if len(curves) != 4 {
		t.Fatalf("curves = %d", len(curves))
	}
	for _, c := range curves {
		if len(c.Points) != 2 {
			t.Fatalf("%s points = %d", c.System, len(c.Points))
		}
		if c.Points[1].Seconds <= c.Points[0].Seconds {
			t.Fatalf("%s time not cumulative", c.System)
		}
	}
}

func TestFig15Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	sc := QuickScale()
	sc.Graphs = []string{"google"}
	rows := Fig15(sc)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestTables45Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	sc := QuickScale()
	sc.Graphs = []string{"google"}
	t4 := Table4(sc)
	if len(t4) != 1 || t4[0].Values["sharedmem_ms"] <= 0 {
		t.Fatalf("table4: %+v", t4)
	}
	t5 := Table5(sc)
	if len(t5) != 8 {
		t.Fatalf("table5 rows = %d", len(t5))
	}
	for _, r := range t5 {
		if strings.HasPrefix(r.Label, "gat/") && r.Values["roc_ms"] != 0 {
			t.Fatalf("ROC ran GAT: %+v", r)
		}
	}
}

func TestRowFormat(t *testing.T) {
	r := newRow("x", "a", 1.5, "b", 2)
	s := r.Format()
	if !strings.Contains(s, "a=1.50") || !strings.Contains(s, "b=2.00") {
		t.Fatalf("format = %q", s)
	}
}

func TestAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	sc := QuickScale()
	rows := Ablations(sc, "google")
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Values["off_ms"] <= 0 || r.Values["on_ms"] <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
}
