"""Randomized-encoding netlist toolkit.

Transforms combinational netlists so that replicated function copies can
be fabricated by an untrusted party while a small trusted harness (random
bit source, encode/select/decode logic) one-time-pads every encoded input
against in-situ data-leakage implants; a copy's internal xor of inputs in
the same random-bit group cancels the pad. Ships a simulator,
an attacker model with information-theoretic leakage metrics, a
fault-tolerant twin/replay variant, cost proxies, and an image-filtering
demonstration.
"""

from .cost import (ActivityReport, CostReport, area, cost_report, depth,
                   switching)
from .demo import (DemoResult, ImageDemoConfig, demo_image, median_filter,
                   synthetic_scene)
from .fixtures import (aes_sbox_table, byte_assignment, byte_value,
                       fixture_generate)
from .ftrecord import (REPLAY_LIMIT, FTDesign, FTTrace, FaultInjection,
                       FaultPlan, ft_simulate, transform_ft)
from .netlist import (Gate, Netlist, NetlistError, evaluate, parse_netlist,
                      read_netlist, save_netlist, write_netlist)
from .recordize import (PartitionedDesign, RecordConfig, design_from_netlist,
                        partition_check, transform, untrusted_zone_text,
                        user_view)
from .rng import RngSpec
from .sim import (SimTrace, Stimulus, Verdict, simulate, simulate_netlist,
                  verify_equivalence)
from .trojan import (LeakReport, LeakTrace, TriggerSpec, leak_report,
                     mutual_information, tap, trigger_experiment)

__version__ = "0.1.0"
