package telemetry

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
)

func TestNewLogger(t *testing.T) {
	cases := []struct {
		level   string
		discard bool
		wantErr string
	}{
		{level: "", discard: true},
		{level: "warn"},
		{level: "loud", wantErr: "debug|info|warn|error"},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		l, err := NewLogger(&buf, tc.level)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("level %q: err = %v, want one naming %s", tc.level, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("level %q: %v", tc.level, err)
		}
		if got := l.Handler() == slog.DiscardHandler; got != tc.discard {
			t.Errorf("level %q: discard = %v, want %v", tc.level, got, tc.discard)
		}
		if tc.discard {
			continue
		}
		l.Info("dropped")
		l.Warn("kept")
		if out := buf.String(); strings.Contains(out, "dropped") || !strings.Contains(out, "msg=kept") {
			t.Errorf("level %q logged %q, want only the warn record", tc.level, out)
		}
	}
}
