package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestQuickExperimentPrintsTable(t *testing.T) {
	var out strings.Builder
	if err := realMain(&out, "E9", 0, true, 1, false, 1, false); err != nil {
		t.Fatal(err)
	}
	header, table, _ := strings.Cut(out.String(), "\n")
	if !strings.HasPrefix(header, "== E9: ") || strings.Count(table, "\n") < 3 {
		t.Errorf("-run E9 -quick printed no table:\n%s", out.String())
	}
}

func TestJSONOutputParses(t *testing.T) {
	var out strings.Builder
	if err := realMain(&out, "E9", 0, true, 1, true, 1, false); err != nil {
		t.Fatal(err)
	}
	var tables []map[string]any
	if err := json.Unmarshal([]byte(out.String()), &tables); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out.String())
	}
	if len(tables) != 1 || tables[0]["id"] != "E9" || tables[0]["title"] == "" {
		t.Errorf("-json -run E9 = %v, want one table with id E9 and a title", tables)
	}
}

func TestUnknownExperimentIsAnError(t *testing.T) {
	var out strings.Builder
	if err := realMain(&out, "E99", 0, true, 1, false, 1, false); err == nil || out.Len() != 0 {
		t.Errorf("-run E99: err = %v, output %q; want an error and no table", err, out.String())
	}
}
