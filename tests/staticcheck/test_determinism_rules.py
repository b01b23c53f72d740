"""RS1xx fixtures: a violating and a clean snippet for every rule."""

from tests.staticcheck import case

# -- RS101: wall-clock reads ---------------------------------------------------------

test_rs101_time_time_flagged = case(
    "import time\ndef deadline(sim):\n    return time.time() + 5\n", ["RS101"], 3,
    says="time.time")
test_rs101_aliased_import_and_from_import = case((
    "import time as t\n\ndef f():\n    return t.monotonic()\n",
    "from time import perf_counter_ns\n\ndef f():\n    return perf_counter_ns()\n",
), ["RS101"])
test_rs101_datetime_now_flagged = case(
    "from datetime import datetime\n\ndef stamp():\n    return datetime.now()\n", ["RS101"])
test_rs101_clean_sim_clock = case("def deadline(sim):\n    return sim.now + 5_000_000\n")
# a local helper named 'time' is not the stdlib clock
test_rs101_local_name_called_time_not_flagged = case("def f(time):\n    return time()\n")

# -- RS102: global / unseeded random --------------------------------------------------

test_rs102_global_random_call_flagged = case(
    "import random\n\ndef jitter():\n    return random.random()\n", ["RS102"])
test_rs102_from_import_choice_flagged = case(
    "from random import choice\n\ndef pick(xs):\n    return choice(xs)\n", ["RS102"])
test_rs102_unseeded_random_instance_flagged = case(
    "import random\n\ndef make():\n    return random.Random()\n", ["RS102"])
test_rs102_global_seed_flagged = case(
    "import random\n\ndef init():\n    random.seed(0)\n", ["RS102"])
test_rs102_clean_seeded_instance_and_registry_stream = case((
    "import random\n\ndef make(seed):\n    return random.Random(seed)\n",
    "def jitter(rng):\n    return rng.stream('fixture').random()\n",
))

# -- RS103: OS entropy ----------------------------------------------------------------

test_rs103_os_urandom_uuid4_secrets_flagged = case((
    "import os\n\ndef f():\n    return os.urandom(8)\n",
    "import uuid\n\ndef f():\n    return uuid.uuid4()\n",
    "import secrets\n\ndef f():\n    return secrets.token_hex(4)\n",
    "import random\n\ndef f():\n    return random.SystemRandom()\n",
), ["RS103"])
test_rs103_clean_counter_id = case(
    "def next_id(state):\n    state.seq += 1\n    return state.seq\n")

# -- RS104: id()/hash() ordering ------------------------------------------------------

test_rs104_sort_key_id_flagged = case((
    "def order(xs):\n    return sorted(xs, key=id)\n",
    "def order(xs):\n    return sorted(xs, key=lambda x: hash(x.name))\n",
    "def order(xs):\n    xs.sort(key=id)\n",
), ["RS104"])
test_rs104_clean_stable_field_key = case(
    "def order(switches):\n    return sorted(switches, key=lambda s: s.uid)\n")

# -- RS105: unordered iteration feeding the schedule / RNG ----------------------------

test_rs105_set_loop_scheduling_flagged = case(
    "def kick(sim, ports):\n    for port in set(ports):\n        sim.at(0, port)\n", ["RS105"])
test_rs105_tracked_set_local_flagged = case(
    "def kick(sim, ports):\n    pending = set(ports)\n    for port in pending:\n"
    "        sim.after(10, port)\n", ["RS105"])
# a keys view is a set as an operand of | & - ^ ...
test_rs105_dict_keys_loop_emitting_flagged = case(
    "def flush(self, table, sent):\n    for dst in table.keys() - sent:\n"
    "        self.port.send(dst)\n", ["RS105"])
# ... and iterated on its own, it is the dict's insertion order
test_rs105_clean_plain_keys_loop = case(
    "def flush(self, table):\n    for dst in table.keys():\n        self.port.send(dst)\n")
test_rs105_reports_each_loop_once_in_a_module_level_function = case((
    "def f(sim, s):\n    for k in set(s):\n        sim.after(1, k)\n",
    "def f(rng, s):\n    return rng.choice([x for x in set(s)])\n",
), ["RS105"], 2)
test_rs105_comprehension_feeding_rng_flagged = case(
    "def pick(rng, pairs):\n    live = {p for p in pairs}\n"
    "    return rng.choice([p for p in live])\n", ["RS105"])
test_rs105_clean_sorted_iteration = case(
    "def kick(sim, ports):\n    for port in sorted(set(ports)):\n        sim.at(0, port)\n")
test_rs105_clean_set_loop_without_sink = case(
    "def count(ports):\n    total = 0\n    for port in set(ports):\n        total += port\n"
    "    return total\n")
test_rs105_clean_rng_choice_on_sorted = case(
    "def pick(rng, cut):\n    live = set(cut)\n    return rng.choice(sorted(live))\n")
