"""One module per subcommand, each imported by ``cli`` only when it runs.

Each module's ``run(args, parser, registry)`` returns the exit code, the
payload and the stderr notes; ``cli._run`` alone writes them.
"""
