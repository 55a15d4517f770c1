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
		{"a10,a15", []string{"a10", "a15"}, ""},
		{" a10 , a15,a10", []string{"a10", "a15"}, ""},
		{"i1,all", figures, ""},
		{"a10,a16", nil, `"a16"`},
		{"a10,", nil, `""`},
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
