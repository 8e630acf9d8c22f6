"""Each subcommand reaches its factors by one route: the rotations into and
out of a flag's adapted basis and the dense numpy.linalg calls of every
cli-small and matrix-large benchmark request at seed 3, pinned."""

import pytest

from opideal.cli import build_parser

# (workload, argv with file names for paths) -> counts; an absent key is 0
EXPECTED = {
    ("cli-small", "svalues --matrix g8.json"): {"svd": 1},
    ("cli-small", "norm --phi kyfan:3 --matrix g8.json"): {"svd": 1},
    ("cli-small", "truncate --matrix g8.json --cuts 2,4,8"): {},
    ("cli-small", "integral --matrix g8.json --flag flag8.json"): {"in": 2, "out": 6},
    ("cli-small", "ldl-nest --matrix a8.json --flag flag8.json"):
        {"in": 2, "out": 3, "solve": 7},
    ("cli-small", "qr-nest --matrix g8.json"): {"qr": 1, "svd": 9},
    ("cli-small", "cartan --type A --matrix g8.json"): {"svd": 2},
    ("cli-small", "iwasawa --matrix g8.json --x0 x0_8.json"):
        {"eigh": 1, "in": 1, "out": 3, "qr": 1, "svd": 9},
    ("cli-small", "hc --matrix g8.json --split 4,4 --z z8.json"): {"solve": 4, "svd": 2},
    ("cli-small", "dualnorm --phi schatten:3 --sequence eta8.csv --seed 3"): {},
    ("cli-small", "boyd --phi schatten:2 --mmax 8 --cap 16 --seed 3"): {},
    ("cli-small", "mean --group q8"): {},
    ("cli-small", "gns --group s3"): {},
    ("cli-small", "arens --group z6 --mu mu_z6.json --nu nu_z6.json"): {},
    ("cli-small",
     "experiment truncation-growth --phi schatten:1 --sizes 4,8 --trials 20 --seed 3"):
        {"svd": 80},
    ("matrix-large", "svalues --matrix g256.json"): {"svd": 1},
    ("matrix-large", "norm --phi schatten:1 --matrix g256.json"): {"svd": 1},
    ("matrix-large", "truncate --matrix g256.json --cuts 64,128,256 --flag flag256.json"):
        {"in": 1, "out": 3},
    ("matrix-large", "integral --matrix g256.json"): {},
    ("matrix-large", "ldl-nest --matrix a256.json"): {"solve": 255},
    ("matrix-large", "qr-nest --matrix g256.json"): {"qr": 1, "svd": 257},
    ("matrix-large", "iwasawa --matrix g256.json --x0 x0_256.json"):
        {"eigh": 1, "in": 1, "out": 3, "qr": 1, "svd": 257},
    ("matrix-large", "hc --matrix g256.json --split 128,128 --z z256.json"):
        {"solve": 4, "svd": 2},
    ("matrix-large", "norm --phi kyfan:5 --matrix g128.json"): {"svd": 1},
    ("matrix-large", "truncate --matrix g128.json --cuts 32,64,128"): {},
    ("matrix-large", "integral --matrix g128.json --flag flag128.json"): {"in": 2, "out": 6},
    ("matrix-large", "ldl-nest --matrix a128.json --flag flag128.json"):
        {"in": 2, "out": 3, "solve": 127},
    ("matrix-large", "qr-nest --matrix g128.json --flag flag128.json"):
        {"in": 2, "out": 2, "qr": 1, "svd": 129},
    ("matrix-large", "cartan --type A --matrix g128.json"): {"svd": 2},
    ("matrix-large", "iwasawa --matrix g128.json"): {"eigh": 1, "qr": 1, "svd": 129},
}


def test_every_request_is_pinned(bench_requests):
    assert sorted(bench_requests) == sorted(EXPECTED)


@pytest.mark.parametrize("key", list(EXPECTED), ids=[" ".join(k) for k in EXPECTED])
def test_operation_counts(bench_requests, op_counts, key):
    args = build_parser().parse_args(bench_requests[key])
    args.func(args)
    assert dict(op_counts) == EXPECTED[key]
