package decimal

import (
	"regexp"
	"strings"
	"testing"
)

// strayed are literals with a second sign inside a part: each used to
// parse, because big.Int.SetString takes a sign of its own.
var strayed = []string{"--1", "+-1", "1.-5", "1.+5", "-+2"}

func TestParseRejectsStraySigns(t *testing.T) {
	for _, s := range strayed {
		if d, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) = %v, want an error", s, d)
		}
	}
}

// literal is the grammar Parse accepts (with at least one digit).
var literal = regexp.MustCompile(`^[+-]?[0-9]*(\.[0-9]{0,4})?$`)

// FuzzDec128Parse checks that Parse accepts exactly the literal grammar,
// rejecting only values too large for 128 bits, that an accepted value
// prints as the literal's canonical form, and that it reads back from
// that form.
func FuzzDec128Parse(f *testing.F) {
	for _, s := range strayed {
		f.Add(s)
	}
	for _, s := range []string{"0", "-0", "+.5", "7.", ".", "-", "", "1.23456", "1e4", " 1", "1_000",
		"-17014118346046923173168730371588410.5728", "17014118346046923173168730371588410.5728"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := Parse(s)
		match := literal.MatchString(s) && strings.ContainsAny(s, "0123456789")
		if err == nil && !match {
			t.Fatalf("Parse(%q) = %v, want an error", s, d)
		}
		intPart, fracPart, _ := strings.Cut(strings.TrimLeft(s, "+-"), ".")
		intPart = strings.TrimLeft(intPart, "0")
		if err != nil {
			// A literal may only fail by overflowing: ~1.7e34 has 35
			// integer digits, so one with at most 34 always fits.
			if match && len(intPart) <= 34 {
				t.Fatalf("Parse(%q): %v", s, err)
			}
			return
		}
		if intPart == "" {
			intPart = "0"
		}
		want := intPart + "." + fracPart + strings.Repeat("0", ScaleDigits-len(fracPart))
		if s[0] == '-' && !d.IsZero() {
			want = "-" + want
		}
		if d.String() != want {
			t.Fatalf("Parse(%q) = %v, want %s", s, d, want)
		}
		back, err := Parse(d.String())
		if err != nil || back != d {
			t.Fatalf("Parse(%q) = %v; Parse(%q) = %v, %v", s, d, d.String(), back, err)
		}
	})
}
