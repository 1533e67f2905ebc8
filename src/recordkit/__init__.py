"""Randomized-encoding netlist toolkit.

Transforms combinational netlists so that replicated function copies can
be fabricated by an untrusted party while a small trusted harness (random
bit source, encode/select/decode logic) keeps the processed data
one-time-padded against in-situ data-leakage implants. Ships a simulator,
an attacker model with information-theoretic leakage metrics, a
fault-tolerant spare/replay variant, cost proxies, and an image-filtering
demonstration.
"""

from .bits import Bits
from .cost import (ActivityReport, CostReport, area, cost_report, depth,
                   switching)
from .demo import (DemoResult, ImageDemoConfig, demo_image, median_filter,
                   synthetic_scene)
from .fixtures import (aes_sbox_table, byte_assignment, byte_value,
                       fixture_generate)
from .ftrecord import (REPLAY_LIMIT, FTDesign, FTTrace, FaultInjection,
                       FaultPlan, ft_simulate, transform_ft)
from .netlist import (Gate, Netlist, NetlistError, evaluate, parse_netlist,
                      read_netlist, save_netlist, validate, write_netlist)
from .recordize import (ClosureReport, PartitionedDesign, RecordConfig,
                        design_from_netlist, partition_check, rekey,
                        transform, untrusted_zone_text, user_view)
from .rng import RngSpec, rng_bits
from .sim import (SimTrace, Stimulus, Verdict, simulate, simulate_netlist,
                  verify_equivalence)
from .trojan import (LeakReport, LeakTrace, TriggerSpec, leak_report,
                     mutual_information, tap, trigger_experiment)

__version__ = "0.1.0"
