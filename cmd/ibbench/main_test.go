package main

import (
	"slices"
	"strings"
	"testing"
)

func TestParseFigs(t *testing.T) {
	cases := []struct {
		arg     string
		want    []string // nil: an error naming badName
		badName string
	}{
		{"all", figures, ""},
		{"5", []string{"5"}, ""},
		{"a11,a14", []string{"a11", "a14"}, ""},
		{" a11 , a14,a11", []string{"a11", "a14"}, ""},
		{"i1,all", figures, ""},
		{"a11,a16", nil, `"a16"`},
		{"a11,", nil, `""`},
		// Retired figures (EXPERIMENTS.md says what answers each now).
		{"a8", nil, `"a8"`},
		{"a9", nil, `"a9"`},
		{"a10", nil, `"a10"`},
		{"a13", nil, `"a13"`},
		{"5,a15", nil, `"a15"`},
		{"", nil, `""`},
		{"ALL", nil, `"ALL"`},
	}
	for _, tc := range cases {
		got, err := parseFigs(tc.arg)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), "unknown figure "+tc.badName) {
				t.Errorf("parseFigs(%q) = %v, %v; want an error naming %s", tc.arg, got, err, tc.badName)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseFigs(%q): %v", tc.arg, err)
			continue
		}
		for _, f := range figures {
			if got[f] != slices.Contains(tc.want, f) {
				t.Errorf("parseFigs(%q)[%s] = %v", tc.arg, f, got[f])
			}
		}
	}
}
