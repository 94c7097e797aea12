package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestReadLoop: a statement over two lines runs once, whole; a \-command
// outside a statement goes to the command handler; \quit ends the loop
// before the statement after it.
func TestReadLoop(t *testing.T) {
	in := strings.NewReader("SELECT title\n  FROM Talk;\n\\stats\n\\quit\nSELECT 1;\n")
	var ran, commands []string
	readLoop(in, func(sql string) { ran = append(ran, sql) }, func(cmd string) bool {
		commands = append(commands, cmd)
		return cmd == `\quit`
	})
	if want := []string{"SELECT title\n  FROM Talk;\n"}; !reflect.DeepEqual(ran, want) {
		t.Errorf("ran %q, want %q", ran, want)
	}
	if want := []string{`\stats`, `\quit`}; !reflect.DeepEqual(commands, want) {
		t.Errorf("commands %q, want %q", commands, want)
	}
}
