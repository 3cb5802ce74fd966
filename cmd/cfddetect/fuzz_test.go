package main

import (
	"bytes"
	"context"
	"io"
	"regexp"
	"testing"

	"distcfd"
	"distcfd/internal/workload"
)

var lineError = regexp.MustCompile(`^line [0-9]+: `)

// FuzzFollowLine hands followDeltas one arbitrary stdin line over a
// freshly compiled EMP detector on three in-process sites (a fresh one
// per input: an accepted delta mutates the fragments). The line is
// bytes some other program wrote: JSON that does not parse, a site that
// does not exist, inserts of the wrong arity, deletes out of range or
// repeated. An accepted line prints its round; a rejected one is an
// error naming its line number; never a panic. The seeds are in
// testdata/fuzz/FuzzFollowLine.
func FuzzFollowLine(f *testing.F) {
	rules := workload.EMPCFDs()
	f.Fuzz(func(t *testing.T, line []byte) {
		part, err := distcfd.PartitionUniform(workload.EMPData(), 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := distcfd.NewCluster(part)
		if err != nil {
			t.Fatal(err)
		}
		det, err := distcfd.Compile(cluster, rules, distcfd.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		err = followDeltas(context.Background(), det, rules, bytes.NewReader(line), io.Discard)
		if err != nil && !lineError.MatchString(err.Error()) {
			t.Fatalf("rejected without a line number: %v", err)
		}
	})
}
