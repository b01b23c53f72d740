"""RS1xx fixtures: a violating and a clean snippet for every rule."""

from tests.staticcheck import check, rules_of


# -- RS101: wall-clock reads ---------------------------------------------------------


def test_rs101_time_time_flagged():
    findings = check(
        "import time\n"
        "def deadline(sim):\n"
        "    return time.time() + 5\n"
    )
    assert rules_of(findings) == ["RS101"]
    assert findings[0][0] == 3
    assert "time.time" in findings[0][2]


def test_rs101_aliased_import_and_from_import():
    aliased = check("import time as t\n\ndef f():\n    return t.monotonic()\n")
    from_import = check(
        "from time import perf_counter_ns\n\ndef f():\n    return perf_counter_ns()\n"
    )
    assert rules_of(aliased) == ["RS101"]
    assert rules_of(from_import) == ["RS101"]


def test_rs101_datetime_now_flagged():
    findings = check(
        "from datetime import datetime\n\ndef stamp():\n    return datetime.now()\n"
    )
    assert rules_of(findings) == ["RS101"]


def test_rs101_clean_sim_clock():
    findings = check(
        "def deadline(sim):\n"
        "    return sim.now + 5_000_000\n"
    )
    assert findings == []


def test_rs101_local_name_called_time_not_flagged():
    # a local helper named 'time' is not the stdlib clock
    findings = check(
        "def f(time):\n"
        "    return time()\n"
    )
    assert findings == []


# -- RS102: global / unseeded random --------------------------------------------------


def test_rs102_global_random_call_flagged():
    findings = check("import random\n\ndef jitter():\n    return random.random()\n")
    assert rules_of(findings) == ["RS102"]


def test_rs102_from_import_choice_flagged():
    findings = check(
        "from random import choice\n\ndef pick(xs):\n    return choice(xs)\n"
    )
    assert rules_of(findings) == ["RS102"]


def test_rs102_unseeded_random_instance_flagged():
    findings = check("import random\n\ndef make():\n    return random.Random()\n")
    assert rules_of(findings) == ["RS102"]


def test_rs102_global_seed_flagged():
    findings = check("import random\n\ndef init():\n    random.seed(0)\n")
    assert rules_of(findings) == ["RS102"]


def test_rs102_clean_seeded_instance_and_registry_stream():
    seeded = check("import random\n\ndef make(seed):\n    return random.Random(seed)\n")
    stream = check(
        "def jitter(rng):\n"
        "    return rng.stream('fixture').random()\n"
    )
    assert seeded == []
    assert stream == []


# -- RS103: OS entropy ----------------------------------------------------------------


def test_rs103_os_urandom_uuid4_secrets_flagged():
    for snippet in (
        "import os\n\ndef f():\n    return os.urandom(8)\n",
        "import uuid\n\ndef f():\n    return uuid.uuid4()\n",
        "import secrets\n\ndef f():\n    return secrets.token_hex(4)\n",
        "import random\n\ndef f():\n    return random.SystemRandom()\n",
    ):
        assert rules_of(check(snippet)) == ["RS103"], snippet


def test_rs103_clean_counter_id():
    findings = check(
        "def next_id(state):\n"
        "    state.seq += 1\n"
        "    return state.seq\n"
    )
    assert findings == []


# -- RS104: id()/hash() ordering ------------------------------------------------------


def test_rs104_sort_key_id_flagged():
    direct = check("def order(xs):\n    return sorted(xs, key=id)\n")
    in_lambda = check(
        "def order(xs):\n    return sorted(xs, key=lambda x: hash(x.name))\n"
    )
    method = check("def order(xs):\n    xs.sort(key=id)\n")
    assert rules_of(direct) == ["RS104"]
    assert rules_of(in_lambda) == ["RS104"]
    assert rules_of(method) == ["RS104"]


def test_rs104_clean_stable_field_key():
    findings = check(
        "def order(switches):\n"
        "    return sorted(switches, key=lambda s: s.uid)\n"
    )
    assert findings == []


# -- RS105: unordered iteration feeding the schedule / RNG ----------------------------


def test_rs105_set_loop_scheduling_flagged():
    findings = check(
        "def kick(sim, ports):\n"
        "    for port in set(ports):\n"
        "        sim.at(0, port)\n"
    )
    assert rules_of(findings) == ["RS105"]


def test_rs105_tracked_set_local_flagged():
    findings = check(
        "def kick(sim, ports):\n"
        "    pending = set(ports)\n"
        "    for port in pending:\n"
        "        sim.after(10, port)\n"
    )
    assert rules_of(findings) == ["RS105"]


def test_rs105_dict_keys_loop_emitting_flagged():
    # a keys view is a set as an operand of | & - ^ ...
    findings = check(
        "def flush(self, table, sent):\n"
        "    for dst in table.keys() - sent:\n"
        "        self.port.send(dst)\n"
    )
    assert rules_of(findings) == ["RS105"]


def test_rs105_clean_plain_keys_loop():
    # ... and iterated on its own, it is the dict's insertion order
    findings = check(
        "def flush(self, table):\n"
        "    for dst in table.keys():\n"
        "        self.port.send(dst)\n"
    )
    assert findings == []


def test_rs105_reports_each_loop_once_in_a_module_level_function():
    loop = check("def f(sim, s):\n    for k in set(s):\n        sim.after(1, k)\n")
    listed = check("def f(rng, s):\n    return rng.choice([x for x in set(s)])\n")
    assert [(line, rule) for line, rule, _ in loop] == [(2, "RS105")]
    assert [(line, rule) for line, rule, _ in listed] == [(2, "RS105")]


def test_rs105_comprehension_feeding_rng_flagged():
    findings = check(
        "def pick(rng, pairs):\n"
        "    live = {p for p in pairs}\n"
        "    return rng.choice([p for p in live])\n"
    )
    assert rules_of(findings) == ["RS105"]


def test_rs105_clean_sorted_iteration():
    findings = check(
        "def kick(sim, ports):\n"
        "    for port in sorted(set(ports)):\n"
        "        sim.at(0, port)\n"
    )
    assert findings == []


def test_rs105_clean_set_loop_without_sink():
    findings = check(
        "def count(ports):\n"
        "    total = 0\n"
        "    for port in set(ports):\n"
        "        total += port\n"
        "    return total\n"
    )
    assert findings == []


def test_rs105_clean_rng_choice_on_sorted():
    findings = check(
        "def pick(rng, cut):\n"
        "    live = set(cut)\n"
        "    return rng.choice(sorted(live))\n"
    )
    assert findings == []
