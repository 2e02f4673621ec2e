package experiments

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"
)

// microScale is an ultra-small configuration so experiment smoke tests
// stay fast enough for the unit suite.
func microScale() Scale {
	return Scale{
		Name:           "micro",
		Divisors:       map[string]int{"isabel": 12, "combustion": 15, "ionization": 30},
		Hidden:         []int{24, 16},
		Epochs:         8,
		FineTuneEpochs: 2,
		Case2Epochs:    4,
		MaxTrainRows:   2000,
		BatchSize:      256,
		TimestepStride: 24,
		Fractions:      []float64{0.02, 0.05},
	}
}

func microConfig() *Config {
	return &Config{Scale: microScale(), Seed: 1, Quiet: true}
}

func TestRegistryCoversEveryTableAndFigure(t *testing.T) {
	want := []string{"fig2", "fig3", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "table1", "table2",
		"ext-select", "ext-uncertainty", "ext-case2", "ext-samplers", "ext-viz", "ext-sim"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	seen := map[string]bool{}
	for _, r := range reg {
		if r.Run == nil {
			t.Fatalf("%s has no Run func", r.ID)
		}
		if r.Title == "" {
			t.Fatalf("%s has no title", r.ID)
		}
		seen[r.ID] = true
	}
	for _, id := range want {
		if !seen[id] {
			t.Fatalf("missing experiment %s", id)
		}
	}
}

func TestRunnerByID(t *testing.T) {
	r, err := RunnerByID("fig9")
	if err != nil || r.ID != "fig9" {
		t.Fatalf("r=%+v err=%v", r, err)
	}
	if _, err := RunnerByID("fig99"); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestScalesWellFormed(t *testing.T) {
	for name, s := range Scales() {
		if s.Name != name {
			t.Fatalf("scale %q has Name %q", name, s.Name)
		}
		for _, d := range []string{"isabel", "combustion", "ionization"} {
			if s.Divisors[d] < 1 {
				t.Fatalf("scale %q: missing divisor for %s", name, d)
			}
		}
		if s.Epochs < 1 || len(s.Hidden) == 0 || len(s.Fractions) == 0 {
			t.Fatalf("scale %q incomplete: %+v", name, s)
		}
		for _, f := range s.Fractions {
			if f <= 0 || f > 1 {
				t.Fatalf("scale %q: bad fraction %g", name, f)
			}
		}
	}
	if _, ok := Scales()["paper"]; !ok {
		t.Fatal("the paper scale must exist")
	}
	// Paper scale must use the paper's native resolutions and settings.
	p := Scales()["paper"]
	if p.Divisors["isabel"] != 1 || p.Epochs != 500 || p.TimestepStride != 1 {
		t.Fatalf("paper scale diverges from the paper: %+v", p)
	}
}

func TestResultFormatting(t *testing.T) {
	r := &Result{
		ID:      "figX",
		Title:   "test",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}, {"3", "4"}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	if err := r.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"figX", "test", "a", "4", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	csv := r.CSV()
	if csv != "a,b\n1,2\n3,4\n" {
		t.Fatalf("csv: %q", csv)
	}
}

func TestFmtPct(t *testing.T) {
	cases := map[float64]string{
		0.001:  "0.1%",
		0.0025: "0.25%",
		0.01:   "1%",
		0.05:   "5%",
	}
	for f, want := range cases {
		if got := fmtPct(f); got != want {
			t.Fatalf("fmtPct(%g) = %q, want %q", f, got, want)
		}
	}
}

// checkResult validates the structural contract every experiment must
// satisfy: consistent column counts, at least one row, parseable cells
// where numeric.
func checkResult(t *testing.T, res *Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatalf("%s produced no rows", res.ID)
	}
	for i, row := range res.Rows {
		if len(row) != len(res.Columns) {
			t.Fatalf("%s row %d has %d cells, want %d", res.ID, i, len(row), len(res.Columns))
		}
	}
}

func TestFig9Micro(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	cfg := microConfig()
	cfg.Dataset = "isabel"
	res, err := Fig9(context.Background(), cfg)
	checkResult(t, res, err)
	if len(res.Rows) != len(cfg.Scale.Fractions) {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// SNR cells must parse as floats.
	for _, row := range res.Rows {
		for _, cell := range row[2:] {
			if _, err := strconv.ParseFloat(cell, 64); err != nil {
				t.Fatalf("bad SNR cell %q", cell)
			}
		}
	}
}

func TestFig12Micro(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	cfg := microConfig()
	res, err := Fig12(context.Background(), cfg)
	checkResult(t, res, err)
	// Full-training losses cover Epochs rows; fine-tune column is
	// shorter and padded with "-".
	if len(res.Rows) != cfg.Scale.Epochs {
		t.Fatalf("%d rows, want %d", len(res.Rows), cfg.Scale.Epochs)
	}
	if res.Rows[len(res.Rows)-1][2] != "-" {
		t.Fatal("fine-tune column should be exhausted before full training")
	}
}

func TestTable2Micro(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	cfg := microConfig()
	res, err := Table2(context.Background(), cfg)
	checkResult(t, res, err)
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
}

func TestModelCacheReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	cfg := microConfig()
	cfg.Dataset = "isabel"
	gens, err := cfg.datasetsFor()
	if err != nil {
		t.Fatal(err)
	}
	m1, _, err := cfg.pretrained(context.Background(), gens[0])
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := cfg.pretrained(context.Background(), gens[0])
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("pretrained model not cached")
	}
}

func TestDatasetsForRestriction(t *testing.T) {
	cfg := microConfig()
	gens, err := cfg.datasetsFor()
	if err != nil || len(gens) != 3 {
		t.Fatalf("gens=%d err=%v", len(gens), err)
	}
	cfg.Dataset = "combustion"
	gens, err = cfg.datasetsFor()
	if err != nil || len(gens) != 1 || gens[0].Name() != "combustion" {
		t.Fatalf("restricted gens=%v err=%v", gens, err)
	}
	cfg.Dataset = "nope"
	if _, err := cfg.datasetsFor(); err == nil {
		t.Fatal("expected error")
	}
}

func TestExtSimMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and steps a simulation")
	}
	cfg := microConfig()
	res, err := ExtSim(context.Background(), cfg)
	checkResult(t, res, err)
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// Every SNR cell parses.
	for _, row := range res.Rows {
		for _, cell := range row[1:] {
			if _, err := strconv.ParseFloat(cell, 64); err != nil {
				t.Fatalf("bad cell %q", cell)
			}
		}
	}
}
