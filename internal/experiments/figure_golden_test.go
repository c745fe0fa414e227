package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

const figureGoldenPath = "testdata/figure_golden.json"

// TestPaperFiguresGolden pins the tuning figures of `-run all` — the
// expedited rows of Figs 4–6 (with each row's best configuration) and
// the single-run rows of Figs 10–12 — as the sha256 of their rows
// printed at full precision, for DefaultEnv. A change anywhere on the
// tuner, config or simulation path that moves a figure shows up here
// as a digest diff. Regenerate with `go test ./internal/experiments
// -run TestPaperFiguresGolden -update` only when a behaviour change is
// meant.
func TestPaperFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction in -short mode")
	}
	e := DefaultEnv()
	figs := []struct{ name, rows string }{
		{"fig4", rowsText(e.Fig4())},
		{"fig5", rowsText(e.Fig5())},
		{"fig6", rowsText(e.Fig6())},
		{"fig10", rowsText(e.Fig10())},
		{"fig11", rowsText(e.Fig11())},
		{"fig12", rowsText(e.Fig12())},
	}
	got := make(map[string]string, len(figs))
	for _, fig := range figs {
		sum := sha256.Sum256([]byte(fig.rows))
		got[fig.name] = hex.EncodeToString(sum[:])
	}

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figureGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(figureGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: rows digest %s, golden %s", k, got[k], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d figures, golden has %d", len(got), len(want))
	}
}

// rowsText prints figure rows one per line with every field at full
// precision.
func rowsText[T any](rows []T) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%+v\n", r)
	}
	return b.String()
}
