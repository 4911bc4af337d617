package harness

import (
	"strings"
	"testing"
	"time"
)

func TestOptionsValidateZeroValue(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero Options must validate: %v", err)
	}
}

func TestOptionsValidateFull(t *testing.T) {
	// A fully-populated valid Options round-trips through Validate.
	opt := Options{
		System: "stm-mv", Threads: 4, Scale: 0.5,
		CM:              "greedy",
		Trace:           64,
		Chaos:           "1:tl2-lock-acquire:0.5",
		ProgressTimeout: time.Second,
		RetryThreads:    8, ExtraRetrySystems: []string{"stm-norec"},
		ThreadCounts: []int{1, 2}, Systems: []string{"stm-lazy"},
	}
	if err := opt.Validate(); err != nil {
		t.Fatalf("valid Options rejected: %v", err)
	}
}

// TestOptionsValidatePerField: each field's invalid value must be reported
// with a recognizable message.
func TestOptionsValidatePerField(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
		want string
	}{
		{"system", Options{System: "stm-nope"}, "unknown system"},
		{"threads", Options{Threads: -1}, "threads"},
		{"seq-threads", Options{System: "seq", Threads: 4}, "seq"},
		{"scale", Options{Scale: -0.5}, "scale"},
		{"cm", Options{CM: "nope"}, "unknown contention manager"},
		{"trace", Options{Trace: -1}, "trace sampling"},
		{"chaos", Options{Chaos: "not-a-spec"}, "chaos spec"},
		{"timeout", Options{ProgressTimeout: -time.Second}, "progress timeout"},
		{"retry-threads", Options{RetryThreads: -1}, "retry threads"},
		{"thread-counts", Options{ThreadCounts: []int{2, 0}}, "thread counts"},
		{"systems", Options{Systems: []string{"nope"}}, "unknown system"},
		{"systems-seq", Options{Systems: []string{"seq"}}, "baseline"},
		{"extra-retry", Options{ExtraRetrySystems: []string{"nope"}}, "ExtraRetrySystems"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opt.Validate()
			if err == nil {
				t.Fatalf("%+v validated", tc.opt)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestOptionsValidateAllAtOnce: multiple invalid fields must all surface in
// one call — the whole point of Validate over failing at NewSystem.
func TestOptionsValidateAllAtOnce(t *testing.T) {
	err := Options{
		System: "stm-nope",
		CM:     "nope",
		Chaos:  "bad",
		Trace:  -1,
	}.Validate()
	if err == nil {
		t.Fatal("invalid Options validated")
	}
	for _, want := range []string{
		"unknown system", "unknown contention manager",
		"chaos spec", "trace sampling",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error %q is missing %q", err, want)
		}
	}
}

// TestRunOneRejectsInvalidOptions: the runner must refuse invalid options
// before building anything.
func TestRunOneRejectsInvalidOptions(t *testing.T) {
	if _, err := RunOne(okApp{}, "ok", Options{System: "stm-lazy", Trace: -1}); err == nil {
		t.Fatal("invalid options accepted by RunOne")
	}
	if _, err := RunOne(okApp{}, "ok", Options{}); err == nil ||
		!strings.Contains(err.Error(), "System") {
		t.Fatalf("missing System not reported: %v", err)
	}
}
