package demand

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeTrace feeds arbitrary bytes to DecodeTrace, seeded with the
// encodings of generated traces and with hand-written valid and
// invalid bodies. Any trace it accepts must survive Encode and a
// second decode unchanged, down to the hash over every step's bits.
func FuzzDecodeTrace(f *testing.F) {
	for _, tr := range []Trace{
		GoldenDiurnal(),
		Bursty(BurstySpec{Steps: 48, Step: 300, A: 50, BaseN: 6000, BurstN: 20000, Onset: 0.1, Decay: 4, Jitter: 0.05, Seed: 3}),
		Ramp(RampSpec{Steps: 24, Step: 600, A: 50, FromN: 6000, ToN: 60000, Jitter: 0.02, Seed: 9}),
	} {
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, body := range []string{
		`{"version":1,"step_seconds":300,"a":50,"steps_n":[6000,12000,24000,48000,24000,12000,6000]}`,
		`{"version":1,"app":"galaxy","name":"tiny","step_seconds":300,"a":50,"steps_n":[6000,0,-0]}`,
		`{"version":1,"step_seconds":300,"a":50,"steps_n":[6000],"typo":true}`,
		`{"version":9,"step_seconds":300,"a":50,"steps_n":[6000]}`,
		`{"version":1,"step_seconds":0,"a":50,"steps_n":[6000]}`,
		`{"version":1,"step_seconds":300,"a":50,"steps_n":[]}`,
		`{"version":1,"step_seconds":300,"a":50,"steps_n":[-1]}`,
		`{"version":1,"step_seconds":1e308,"a":1e-308,"steps_n":[5e-324,1.7976931348623157e308]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatalf("accepted trace does not encode: %v", err)
		}
		back, err := DecodeTrace(&buf)
		if err != nil {
			t.Fatalf("encoded trace does not decode: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, tr) || back.Hash() != tr.Hash() {
			t.Fatalf("round trip changed the trace:\n%+v\n%+v", tr, back)
		}
	})
}
