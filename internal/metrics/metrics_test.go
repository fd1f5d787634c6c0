package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTableRendersAligned(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 22)
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Fatalf("header wrong: %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Fatalf("separator missing: %q", lines[1])
	}
	if !strings.Contains(out, "1.50") {
		t.Fatal("float formatting wrong")
	}
	if tb.Len() != 2 {
		t.Fatal("Len wrong")
	}
	for _, l := range strings.Split(out, "\n") {
		if strings.HasSuffix(l, " ") {
			t.Fatalf("line ends in a space: %q", l)
		}
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Fatal("extremes wrong")
	}
	if Percentile(xs, 50) != 3 {
		t.Fatalf("median = %v", Percentile(xs, 50))
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Percentile mutated input")
	}
	for _, bad := range []float64{-1, 101} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("p=%v accepted", bad)
				}
			}()
			Percentile(xs, bad)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty input accepted")
		}
	}()
	Percentile(nil, 50)
}

func TestFormatPct(t *testing.T) {
	if FormatPct(0.9219) != "92.19%" {
		t.Fatalf("FormatPct = %q", FormatPct(0.9219))
	}
}

func TestPropPercentileWithinRange(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		n := int(seed % 20)
		if n < 0 {
			n = -n
		}
		n++
		xs := make([]float64, n)
		v := float64(seed % 1000)
		for i := range xs {
			v = math.Mod(v*1103515245+12345, 1000)
			xs[i] = v
		}
		p := float64(pRaw % 101)
		got := Percentile(xs, p)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMeanBetweenMinMax(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return m >= lo-1e-6 && m <= hi+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
