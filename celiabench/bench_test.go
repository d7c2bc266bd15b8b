package main

import (
	"bytes"
	"math"
	"testing"
	"time"
)

func listBytes(reqs []Request) []byte {
	var b bytes.Buffer
	for _, r := range reqs {
		b.WriteString(r.Path())
		b.WriteByte(' ')
		b.Write(r.Body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestSameSeedSameList(t *testing.T) {
	for _, w := range workloads {
		a, b := listBytes(Generate(w, 7, 2)), listBytes(Generate(w, 7, 2))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different lists", w.Name)
		}
		if c := listBytes(Generate(w, 8, 2)); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same list", w.Name)
		}
	}
}

func TestListLengthFollowsSeconds(t *testing.T) {
	for _, w := range workloads {
		if got := len(Generate(w, 1, 3)); got != 3*w.Rate {
			t.Errorf("%s: %d requests for 3 s, want %d", w.Name, got, 3*w.Rate)
		}
	}
}

// TestKindMixAndRepeatShare checks that every workload realizes its
// stated kind weights over distinct keys, spreads each kind evenly over
// the apps, and repeats exactly its stated share of hot keys.
func TestKindMixAndRepeatShare(t *testing.T) {
	for _, w := range workloads {
		reqs := Generate(w, 3, 2)
		hotWant := int(math.Round(w.HotShare * float64(len(reqs))))
		hot, distinct := 0, map[string]Request{}
		for _, r := range reqs {
			if r.Hot {
				hot++
			} else if _, dup := distinct[string(r.Body)]; dup {
				t.Fatalf("%s: cold key sent twice: %s", w.Name, r.Body)
			}
			distinct[string(r.Body)] = r
		}
		if hot != hotWant {
			t.Errorf("%s: %d hot requests, want %d", w.Name, hot, hotWant)
		}
		hotSet := 0
		if hotWant > 0 {
			hotSet = min(w.HotSet, hotWant)
		}
		if got, want := len(distinct), len(reqs)-hotWant+hotSet; got != want {
			t.Errorf("%s: %d distinct keys, want %d", w.Name, got, want)
		}

		total := 0
		for _, m := range w.Mix {
			total += m.Weight
		}
		kinds, apps := map[string]int{}, map[string]map[string]int{}
		for _, r := range distinct {
			kinds[r.Kind]++
			if apps[r.Kind] == nil {
				apps[r.Kind] = map[string]int{}
			}
			apps[r.Kind][r.App]++
		}
		for _, m := range w.Mix {
			want := float64(len(distinct)) * float64(m.Weight) / float64(total)
			// The hot set is a random draw of the stratified keys, so a
			// kind may be off its exact share by the hot set's size.
			if math.Abs(float64(kinds[m.Kind])-want) > float64(hotSet)+1 {
				t.Errorf("%s: %d %s keys, want %.0f", w.Name, kinds[m.Kind], m.Kind, want)
			}
			for _, spec := range appSpecs {
				share := float64(apps[m.Kind][spec.Name]) / float64(kinds[m.Kind])
				if math.Abs(share-1.0/3) > 0.1 {
					t.Errorf("%s: %s on %s is %.2f of the kind, want 1/3", w.Name, m.Kind, spec.Name, share)
				}
			}
		}
	}
}

func TestProbeNeverSharesAKey(t *testing.T) {
	probe := map[string]float64{}
	for _, spec := range appSpecs {
		probe[spec.Name] = probeBudget(spec)
	}
	for _, w := range workloads {
		for _, r := range Generate(w, 5, 2) {
			if r.Kind == "mintime" && r.BudgetUSD >= probe[r.App] {
				t.Fatalf("%s: budget %v reaches the set-up probe's", w.Name, r.BudgetUSD)
			}
		}
	}
}

func TestApportion(t *testing.T) {
	for _, tc := range []struct {
		n       int
		weights []int
		want    []int
	}{
		{10, []int{1, 1, 1}, []int{4, 3, 3}},
		{7, []int{2, 2, 1}, []int{3, 3, 1}},
		{0, []int{3, 2}, []int{0, 0}},
	} {
		got := apportion(tc.n, tc.weights)
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("apportion(%d, %v) = %v, want %v", tc.n, tc.weights, got, tc.want)
				break
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{seq(5), 50, 3},
		{seq(4), 50, 2.5},
		{seq(5), 0, 1},
		{seq(5), 100, 5},
		{seq(101), 95, 96},
		{seq(11), 90, 10},
		{[]float64{7}, 99, 7},
	} {
		if got := percentile(tc.xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample is not NaN")
	}
	if got := tailSamples(seq(200), 95); got != 10 {
		t.Errorf("tailSamples(1..200, 95) = %d, want 10", got)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the bounds are checked with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2, 4, 4, 5, 7, 9, 10, 12, 15, 20}, 4, 12.75},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []Span{
		{Name: "root", Parent: -1, Start: us(0), End: us(100)},
		{Name: "a", Parent: 0, Start: us(10), End: us(30)},
		{Name: "b", Parent: 0, Start: us(20), End: us(50)},  // overlaps a
		{Name: "c", Parent: 0, Start: us(90), End: us(120)}, // runs past root
		{Name: "a1", Parent: 1, Start: us(15), End: us(20)},
		{Name: "other", Parent: -1, Start: us(200), End: us(210)},
	}
	want := []time.Duration{
		us(50), // 100 minus [10,50] and [90,100]
		us(15), // 20 minus a1's 5
		us(30),
		us(30),
		us(5),
		us(10),
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestParseLiveHeap(t *testing.T) {
	line := "gc 7 @1.234s 2%: 0.011+1.2+0.004 ms clock, 0.022+0.3/1.1/0+0.008 ms cpu, 310->312->301 MB, 620 MB goal, 0 MB stacks, 0 MB globals, 2 P"
	if mb, ok := parseLiveHeap(line); !ok || mb != 301 {
		t.Errorf("parseLiveHeap = %v, %v; want 301, true", mb, ok)
	}
}
