package crowddb

import (
	"flag"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"crowddb/internal/core"
	"crowddb/internal/exec"
	"crowddb/internal/optimizer"
	"crowddb/internal/server"
	"crowddb/internal/storage"
	"crowddb/internal/taskmgr"
)

var updateOptions = flag.Bool("update-options", false, "rewrite testdata/options.golden from this tree")

// TestOptionsGolden pins the set of independently settable values: every
// exported field of the configuration structs — and of the two structs a
// knob can hide in, the cost model's inputs and the executor's per-query
// context — by name. A PR that says "no option added" leaves
// testdata/options.golden alone; one that adds or retires a knob shows it
// as a line of that file's diff.
func TestOptionsGolden(t *testing.T) {
	var names []string
	for _, v := range []any{
		core.Config{}, core.ExecOpts{}, server.Config{},
		taskmgr.Config{}, storage.Options{}, optimizer.Options{},
		optimizer.CostInputs{}, exec.Ctx{},
	} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				names = append(names, typ.String()+"."+f.Name)
			}
		}
	}
	sort.Strings(names)
	got := strings.Join(names, "\n") + "\n"
	const path = "testdata/options.golden"
	if *updateOptions {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("option fields differ from %s (rerun with -update-options if intended)\ngot:\n%swant:\n%s", path, got, want)
	}
}
