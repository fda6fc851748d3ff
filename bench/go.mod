// The end-to-end benchmark is a module of its own, so the repository's
// `go build ./...` and `go test ./...` do not descend into it; its path
// sits under the parent module's, which is what lets it import the
// parent's internal packages.
module github.com/cycleharvest/ckptsched/bench

go 1.22

require github.com/cycleharvest/ckptsched v0.0.0

replace github.com/cycleharvest/ckptsched => ../
