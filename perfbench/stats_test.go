package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want pct
	}{
		{"empty", nil, 50, pct{}},
		{"single p50", []float64{7}, 50, pct{Value: 7, N: 1, Beyond: 0}},
		{"single p90", []float64{7}, 90, pct{Value: 7, N: 1, Beyond: 0}},
		{"ten p50", ten, 50, pct{Value: 5, N: 10, Beyond: 5}},
		{"ten p90", ten, 90, pct{Value: 9, N: 10, Beyond: 1}},
		{"ten p99", ten, 99, pct{Value: 10, N: 10, Beyond: 0}},
		{"ten p100", ten, 100, pct{Value: 10, N: 10, Beyond: 0}},
		{"ten p1", ten, 1, pct{Value: 1, N: 10, Beyond: 9}},
		{"eight p50", []float64{8, 7, 6, 5, 4, 3, 2, 1}, 50, pct{Value: 4, N: 8, Beyond: 4}},
		{"eight p90", []float64{8, 7, 6, 5, 4, 3, 2, 1}, 90, pct{Value: 8, N: 8, Beyond: 0}},
		{"ties", []float64{2, 2, 2, 1}, 50, pct{Value: 2, N: 4, Beyond: 2}},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("%s: percentile(%v, %v) = %+v, want %+v", c.name, c.xs, c.p, got, c.want)
		}
	}
}

func TestPercentileTailHasTenBeyond(t *testing.T) {
	// With 100 samples, p90 leaves exactly ten samples above it — the
	// smallest sample for which the benchmark's p90 is a supported tail.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	got := percentile(xs, 90)
	if got.Value != 90 || got.N != 100 || got.Beyond != 10 {
		t.Fatalf("p90 of 1..100 = %+v, want value 90, n 100, beyond 10", got)
	}
	if xs[0] != 100 {
		t.Fatalf("percentile reordered its input")
	}
}
