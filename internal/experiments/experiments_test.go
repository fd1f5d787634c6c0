package experiments

import (
	"strings"
	"testing"

	"ldbnadapt/internal/carlane"
	"ldbnadapt/internal/orin"
	"ldbnadapt/internal/resnet"
)

func TestRunFig2QuickMoLaneR18(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models; skipped in -short mode")
	}
	p := Quick()
	res, err := RunFig2(p, []carlane.BenchmarkName{carlane.MoLane}, []resnet.Variant{resnet.R18}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One NoAdapt + one SOTA + three LD-BN-ADAPT cells.
	if len(res.Cells) != 5 {
		t.Fatalf("cells = %d, want 5", len(res.Cells))
	}
	noAdapt, ok := res.Lookup("MoLane", "R-18", "NoAdapt", 0)
	if !ok {
		t.Fatal("NoAdapt cell missing")
	}
	src := res.SourceAcc["MoLane/R-18"]
	if !(noAdapt < src) {
		t.Fatalf("domain gap missing: no-adapt %.3f vs source %.3f", noAdapt, src)
	}
	// Every adaptation method must improve on no adaptation.
	for _, method := range []string{"CARLANE-SOTA", "LD-BN-ADAPT"} {
		best := res.BestPerBenchmark(method)["MoLane"]
		if best <= noAdapt {
			t.Errorf("%s best %.3f did not beat NoAdapt %.3f", method, best, noAdapt)
		}
	}
	var sb strings.Builder
	res.WriteTable(&sb)
	for _, want := range []string{"MoLane", "LD-BN-ADAPT", "CARLANE-SOTA", "source-val"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("table missing %q", want)
		}
	}
}

func TestRunFig3CoversGrid(t *testing.T) {
	est := RunFig3(4)
	if len(est) != 2*len(orin.Modes) {
		t.Fatalf("estimates = %d, want %d", len(est), 2*len(orin.Modes))
	}
	// The paper's Fig. 3 key facts.
	find := func(model string, watts int) orin.Estimate {
		for _, e := range est {
			if e.ModelName == model && e.Mode.Watts == watts {
				return e
			}
		}
		t.Fatalf("estimate %s@%dW missing", model, watts)
		return orin.Estimate{}
	}
	if !find("R-18", 60).Meets(orin.Deadline30FPS) {
		t.Error("R-18@60W must meet 30 FPS")
	}
	if find("R-34", 60).Meets(orin.Deadline30FPS) {
		t.Error("R-34@60W must miss 30 FPS")
	}
	if !find("R-34", 60).Meets(orin.Deadline18FPS) {
		t.Error("R-34@60W must meet 18 FPS")
	}
	var sb strings.Builder
	WriteFig3(&sb, 4)
	if !strings.Contains(sb.String(), "30 FPS") {
		t.Fatal("Fig3 table missing deadline note")
	}
}

func TestRunFig1Writes(t *testing.T) {
	var sb strings.Builder
	p := Quick()
	RunFig1(p, &sb)
	for _, want := range []string{"MoLane", "TuLane", "MuLane", "sim"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("Fig1 output missing %q", want)
		}
	}
}

func TestWriteSOTACost(t *testing.T) {
	var sb strings.Builder
	WriteSOTACost(&sb, 4)
	out := sb.String()
	if !strings.Contains(out, "R-18") || !strings.Contains(out, "h") {
		t.Fatalf("SOTA cost table malformed:\n%s", out)
	}
	// The table must show hours-scale epochs (the >1h claim).
	if !strings.Contains(out, "SOTA epoch") {
		t.Fatal("missing epoch column")
	}
}

func TestRunAblationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models; skipped in -short mode")
	}
	p := Quick()
	cells, err := RunAblation(p, resnet.R18, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5 {
		t.Fatalf("ablation cells = %d, want 5", len(cells))
	}
	byName := make(map[string]AblationCell)
	for _, c := range cells {
		byName[c.Method] = c
		if c.Accuracy < 0 || c.Accuracy > 1 {
			t.Fatalf("%s accuracy %v out of range", c.Method, c.Accuracy)
		}
	}
	bn := byName["LD-BN-ADAPT (entropy)"]
	if bn.AdaptedParams <= 0 {
		t.Fatal("BN adapted params not recorded")
	}
	// The paper's §III ordering (BN beats conv/FC adaptation) is a
	// full-profile result (`go run ./cmd/ldbench -profile full`); at
	// the quick profile the tiny stream is too noisy to assert it. Here
	// we only require that BN adaptation does not lose to NoAdapt.
	if bn.Accuracy+0.02 < byName["NoAdapt"].Accuracy {
		t.Errorf("LD-BN-ADAPT (%.3f) lost to NoAdapt (%.3f)", bn.Accuracy, byName["NoAdapt"].Accuracy)
	}
	var sb strings.Builder
	WriteAblation(&sb, cells)
	if !strings.Contains(sb.String(), "CONV-ADAPT") {
		t.Fatal("ablation table malformed")
	}
}

func TestProfiles(t *testing.T) {
	for _, p := range []Profile{Quick(), Full()} {
		if p.CfgFor == nil || p.TrainEpochs < 1 || p.SOTAEpochs < 1 {
			t.Fatalf("profile %s malformed", p.Name)
		}
		cfg := p.CfgFor(resnet.R18, 2)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("profile %s config invalid: %v", p.Name, err)
		}
	}
}

func TestRunMomentumAblationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models; skipped in -short mode")
	}
	p := Quick()
	cells, err := RunMomentumAblation(p, resnet.R18, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	seen := make(map[float32]bool)
	for _, c := range cells {
		if c.Accuracy < 0 || c.Accuracy > 1 {
			t.Fatalf("am=%.1f accuracy %v out of range", c.AdaptMomentum, c.Accuracy)
		}
		seen[c.AdaptMomentum] = true
	}
	if !seen[1.0] {
		t.Fatal("TENT endpoint (momentum 1.0) missing from sweep")
	}
	var sb strings.Builder
	WriteMomentumAblation(&sb, cells)
	if !strings.Contains(sb.String(), "TENT") {
		t.Fatal("momentum table missing TENT note")
	}
}
