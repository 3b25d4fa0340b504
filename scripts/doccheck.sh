#!/bin/sh
# Documentation gate: every package needs a godoc package comment, every
# exported identifier in a public package needs a doc comment, every
# relative link in a markdown file must resolve, and every backticked
# Type.Member or pkg.Ident in a markdown file must name something the
# module declares. Run from the repository root (directly or via
# `make check`); see scripts/doccheck for the rules.
set -eu

go run ./scripts/doccheck
