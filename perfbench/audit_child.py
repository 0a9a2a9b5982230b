"""Run the audit workload once in a fresh interpreter, for its peak RSS.

    PYTHONPATH=src python3 perfbench/audit_child.py SEED
"""

import sys

import drive
import workloads
from spinel.oracle import standard_context

if __name__ == "__main__":
    drive.audit(standard_context(), workloads.build("audit", int(sys.argv[1])).goals)
