"""``python -m shrinkerlab``: the scenario runner's command line."""

import sys

from .labcli import main

sys.exit(main())
