import sys

from benchmarks.harness.run import main

sys.exit(main())
