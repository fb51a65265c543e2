package repro.perfbench

import java.nio.file.{Path, Paths}

/** Benchmark entry point:
  * `--workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`.
  * Prints a report, then one JSON line with the metrics: the end-to-end
  * metrics untraced, the per-layer metrics with `--trace 1`.
  */
object Main {
  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean,
                        out: Option[Path])

  def parse(args: Seq[String]): Either[String, Args] = {
    if (args.size % 2 != 0) return Left("arguments come in --name value pairs")
    val kv = args.grouped(2).map { case Seq(k, v) => k -> v }.toMap
    val unknown = kv.keySet -- Set("--workload", "--seed", "--seconds", "--trace", "--out")
    def get(k: String) = kv.get(k).toRight(s"missing $k")
    for {
      _ <- if (unknown.isEmpty) Right(()) else Left(s"unknown ${unknown.mkString(", ")}")
      name <- get("--workload")
      w <- Workload.byName(name).toRight(
        s"unknown workload $name (have: ${Workload.all.map(_.name).mkString(", ")})")
      seed <- get("--seed").flatMap(_.toLongOption.toRight("--seed takes a whole number"))
      secs <- get("--seconds").flatMap(_.toIntOption.filter(_ > 0)
        .toRight("--seconds takes a positive whole number"))
      trace <- get("--trace").flatMap {
        case "0" => Right(false); case "1" => Right(true)
        case _   => Left("--trace takes 0 or 1")
      }
    } yield Args(w, seed, secs, trace, kv.get("--out").map(Paths.get(_)))
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv.toSeq) match {
      case Right(a) => a
      case Left(why) =>
        Console.err.println(s"perfbench: $why"); sys.exit(2)
    }
    try {
      val bench = new Bench(a.workload, a.seed, a.seconds, a.trace)
      val (report, json) = try bench.execute(a.out) finally bench.stop()
      report.foreach(println)
      println(json)
    } catch {
      case e: Throwable =>
        e.printStackTrace()
        sys.exit(1)
    }
    sys.exit(0)
  }
}
