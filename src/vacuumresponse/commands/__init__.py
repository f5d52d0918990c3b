"""One module per subcommand, each imported by ``cli`` only when it runs.

Each module's ``run(args, registry)`` returns the exit code, the payload and
the stderr notes; ``cli._run`` alone writes them.  A usage error goes to
``args.parser``, the subcommand's own parser.
"""
