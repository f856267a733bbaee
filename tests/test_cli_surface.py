"""Pin the ``python -m repro`` argument surface.

:data:`SURFACE` lists every option of every (sub)command as it stood
before the CLI became table-driven: ``(option strings, dest, default,
choices, nargs, required, type name, const)``, with list defaults as
tuples; a ``"<sub>"`` row lists a command group's subcommands.  Order
counts: it is the order of ``--help`` and of a run report's ``params``.
:data:`CHANGES` are the only deliberate departures from it.  A refactor
of the parser must keep every other row as it is.
"""

import argparse

from repro.__main__ import build_parser

KERNELS = ("chol", "ocs", "syr2k", "tbs")

SURFACE = {
    '': [
        ('<sub>', 'command', ('demo', 'figures', 'sweep', 'constants', 'replay', 'graph', 'search', 'trace', 'parallel', 'cosearch', 'serve', 'report', 'check'), True),
    ],
    'check': [
        ((), 'artifact', None, None, '?', False, None, None),
        (('--capacity',), 'capacity', None, None, None, False, 'int', None),
        (('--store',), 'store', None, None, None, False, None, None),
        (('--digest',), 'digest', None, None, None, False, None, None),
        (('--all',), 'all', False, None, 0, False, None, True),
        (('--kernel',), 'kernel', None, None, None, False, None, None),
        (('--n',), 'n', 40, None, None, False, 'int', None),
        (('--m',), 'm', 6, None, None, False, 'int', None),
        (('--s',), 's', 15, None, None, False, 'int', None),
        (('--p',), 'p', 1, None, None, False, 'int', None),
        (('--partitioner',), 'partitioner', 'owner-computes', ('level-greedy', 'locality', 'owner-computes'), None, False, None, None),
        (('--relax',), 'relax', False, None, 0, False, None, True),
        (('--lint',), 'lint', None, None, '+', False, None, None),
        (('--format',), 'format', 'table', ('table', 'json'), None, False, None, None),
        (('--report',), 'report', None, None, None, False, None, None),
    ],
    'constants': [
    ],
    'cosearch': [
        (('--kernel',), 'kernel', 'tbs', ('chol', 'ocs', 'syr2k', 'tbs'), None, False, None, None),
        (('--n',), 'n', 40, None, None, False, 'int', None),
        (('--m',), 'm', 6, None, None, False, 'int', None),
        (('--s',), 's', 15, None, None, False, 'int', None),
        (('--p',), 'p', (4,), None, '+', False, 'int', None),
        (('--iters',), 'iters', 600, None, None, False, 'int', None),
        (('--search-iters',), 'search_iters', 200, None, None, False, 'int', None),
        (('--seed',), 'seed', 0, None, None, False, 'int', None),
        (('--jobs',), 'jobs', 1, None, None, False, 'int', None),
        (('--alpha',), 'alpha', 1.0, None, None, False, 'float', None),
        (('--beta',), 'beta', 1.0, None, None, False, 'float', None),
        (('--no-relax',), 'no_relax', False, None, 0, False, None, True),
        (('--report',), 'report', None, None, None, False, None, None),
        (('--timeline',), 'timeline', None, None, None, False, None, None),
    ],
    'demo': [
    ],
    'figures': [
        (('--n',), 'n', 27, None, None, False, 'int', None),
        (('--k',), 'k', 5, None, None, False, 'int', None),
    ],
    'graph': [
        (('--kernel',), 'kernel', 'tbs', ('chol', 'ocs', 'syr2k', 'tbs'), None, False, None, None),
        (('--n',), 'n', 40, None, None, False, 'int', None),
        (('--m',), 'm', 6, None, None, False, 'int', None),
        (('--s',), 's', 15, None, None, False, 'int', None),
        (('--heuristics',), 'heuristics', None, ('original', 'depth-first', 'locality', 'fan-out'), '+', False, None, None),
        (('--no-numerics',), 'no_numerics', False, None, 0, False, None, True),
    ],
    'parallel': [
        (('--kernel',), 'kernel', 'tbs', ('chol', 'ocs', 'syr2k', 'tbs'), None, False, None, None),
        (('--n',), 'n', 40, None, None, False, 'int', None),
        (('--m',), 'm', 6, None, None, False, 'int', None),
        (('--s',), 's', 15, None, None, False, 'int', None),
        (('--p',), 'p', (1, 4, 16), None, '+', False, 'int', None),
        (('--partitioners',), 'partitioners', None, ('level-greedy', 'locality', 'owner-computes'), '+', False, None, None),
        (('--policy',), 'policy', 'rewrite', ('rewrite', 'lru', 'belady'), None, False, None, None),
        (('--refine',), 'refine', None, ('greedy', 'anneal', 'greedy+anneal'), '?', False, None, 'greedy'),
        (('--seed',), 'seed', 0, None, None, False, 'int', None),
        (('--jobs',), 'jobs', 1, None, None, False, 'int', None),
        (('--alpha',), 'alpha', 1.0, None, None, False, 'float', None),
        (('--beta',), 'beta', 1.0, None, None, False, 'float', None),
        (('--report',), 'report', None, None, None, False, None, None),
        (('--timeline',), 'timeline', None, None, None, False, None, None),
    ],
    'replay': [
        (('--s',), 's', 15, None, None, False, 'int', None),
        (('--n',), 'n', 40, None, None, False, 'int', None),
        (('--m',), 'm', 6, None, None, False, 'int', None),
    ],
    'report': [
        ((), 'path', None, None, None, True, None, None),
    ],
    'search': [
        (('--kernel',), 'kernel', 'tbs', ('chol', 'ocs', 'syr2k', 'tbs'), None, False, None, None),
        (('--n',), 'n', 40, None, None, False, 'int', None),
        (('--m',), 'm', 6, None, None, False, 'int', None),
        (('--s',), 's', 15, None, None, False, 'int', None),
        (('--strategy',), 'strategy', None, ('beam', 'lookahead', 'anneal'), '+', False, None, None),
        (('--heuristics',), 'heuristics', ('locality',), ('original', 'depth-first', 'locality', 'fan-out'), '+', False, None, None),
        (('--relax',), 'relax', False, None, 0, False, None, True),
        (('--width',), 'width', 4, None, None, False, 'int', None),
        (('--depth',), 'depth', 4, None, None, False, 'int', None),
        (('--iters',), 'iters', 800, None, None, False, 'int', None),
        (('--seed',), 'seed', 0, None, None, False, 'int', None),
        (('--chains',), 'chains', 1, None, None, False, 'int', None),
        (('--jobs',), 'jobs', 1, None, None, False, 'int', None),
        (('--report',), 'report', None, None, None, False, None, None),
        (('--timeline',), 'timeline', None, None, None, False, None, None),
    ],
    'serve': [
        ('<sub>', 'serve_command', ('warm', 'query', 'stats'), True),
    ],
    'serve query': [
        (('--store',), 'store', None, None, None, True, None, None),
        (('--kernel',), 'kernel', 'tbs', ('chol', 'ocs', 'syr2k', 'tbs'), None, False, None, None),
        (('--ns',), 'ns', (40,), None, '+', False, 'int', None),
        (('--m',), 'm', 6, None, None, False, 'int', None),
        (('--s',), 's', 15, None, None, False, 'int', None),
        (('--p',), 'p', 1, None, None, False, 'int', None),
        (('--policy',), 'policy', 'heuristic', ('heuristic', 'search', 'cosearch'), None, False, None, None),
        (('--alpha',), 'alpha', 1.0, None, None, False, 'float', None),
        (('--beta',), 'beta', 1.0, None, None, False, 'float', None),
        (('--requests',), 'requests', 64, None, None, False, 'int', None),
        (('--cache-size',), 'cache_size', 4, None, None, False, 'int', None),
        (('--zipf',), 'zipf', 1.1, None, None, False, 'float', None),
        (('--batch',), 'batch', 16, None, None, False, 'int', None),
        (('--seed',), 'seed', 0, None, None, False, 'int', None),
        (('--workers',), 'workers', 0, None, None, False, 'int', None),
    ],
    'serve stats': [
        (('--store',), 'store', None, None, None, True, None, None),
        (('--json',), 'json', None, None, None, False, None, None),
    ],
    'serve warm': [
        (('--store',), 'store', None, None, None, True, None, None),
        (('--kernel',), 'kernel', 'tbs', ('chol', 'ocs', 'syr2k', 'tbs'), None, False, None, None),
        (('--ns',), 'ns', (40,), None, '+', False, 'int', None),
        (('--m',), 'm', 6, None, None, False, 'int', None),
        (('--s',), 's', 15, None, None, False, 'int', None),
        (('--p',), 'p', 1, None, None, False, 'int', None),
        (('--policy',), 'policy', 'heuristic', ('heuristic', 'search', 'cosearch'), None, False, None, None),
        (('--alpha',), 'alpha', 1.0, None, None, False, 'float', None),
        (('--beta',), 'beta', 1.0, None, None, False, 'float', None),
        (('--jobs',), 'jobs', 1, None, None, False, 'int', None),
        (('--force',), 'force', False, None, 0, False, None, True),
    ],
    'sweep': [
        ((), 'kernel', None, ('syrk', 'cholesky'), None, True, None, None),
        (('--s',), 's', 15, None, None, False, 'int', None),
        (('--m',), 'm', 8, None, None, False, 'int', None),
        (('--ns',), 'ns', (60, 120), None, '+', False, 'int', None),
    ],
    'trace': [
        ('<sub>', 'trace_command', ('compile', 'replay', 'info'), True),
    ],
    'trace compile': [
        (('--kernel',), 'kernel', 'tbs', ('chol', 'ocs', 'syr2k', 'tbs'), None, False, None, None),
        (('--n',), 'n', 40, None, None, False, 'int', None),
        (('--m',), 'm', 6, None, None, False, 'int', None),
        (('--s',), 's', 15, None, None, False, 'int', None),
        (('-o', '--out'), 'out', None, None, None, True, None, None),
        (('--schedule-out',), 'schedule_out', None, None, None, False, None, None),
    ],
    'trace info': [
        ((), 'path', None, None, None, True, None, None),
    ],
    'trace replay': [
        ((), 'path', None, None, None, True, None, None),
        (('--capacity',), 'capacity', None, None, '+', True, 'int', None),
        (('--policy',), 'policy', 'both', ('lru', 'belady', 'both'), None, False, None, None),
        (('--check',), 'check', False, None, 0, False, None, True),
        (('--jobs',), 'jobs', 1, None, None, False, 'int', None),
    ],
}

#: Deliberate changes: ``check --kernel`` validates against the recorded
#: cases, and ``serve query`` rejects request and batch counts below 1.
CHANGES = {
    ("check", "kernel"): (("--kernel",), "kernel", None, KERNELS, None, False, None, None),
    ("serve query", "batch"): (
        ("--batch",), "batch", 16, None, None, False, "positive_int", None),
    ("serve query", "requests"): (
        ("--requests",), "requests", 64, None, None, False, "positive_int", None),
}


def _walk(parser, path, out):
    rows = []
    for a in parser._actions:
        if isinstance(a, argparse._HelpAction):
            continue
        if isinstance(a, argparse._SubParsersAction):
            rows.append(("<sub>", a.dest, tuple(a.choices), a.required))
            for name, sub in a.choices.items():
                _walk(sub, f"{path} {name}".strip(), out)
            continue
        default = tuple(a.default) if isinstance(a.default, list) else a.default
        rows.append((
            tuple(a.option_strings), a.dest, default,
            None if a.choices is None else tuple(a.choices),
            a.nargs, a.required, getattr(a.type, "__name__", None), a.const,
        ))
    out[path] = rows
    return out


def test_cli_surface_matches_pin():
    changes = dict(CHANGES)
    expected = {
        path: [changes.pop((path, row[1]), row) for row in rows]
        for path, rows in SURFACE.items()
    }
    assert not changes  # every deliberate change names a pinned option
    actual = _walk(build_parser(), "", {})
    assert sorted(actual) == sorted(expected)
    for path, rows in expected.items():
        assert actual[path] == rows, path
