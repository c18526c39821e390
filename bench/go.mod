// The benchmark is a module of its own so that it builds from its own
// directory (go run -C bench ./wall) and stays out of the program's
// `go build ./...` and `go test ./...`. The module path sits under "bmx/" so
// the benchmark may import bmx/internal/...: it measures every layer from
// outside, through the layers' exported seams.
module bmx/bench

go 1.22

require bmx v0.0.0

replace bmx => ../
