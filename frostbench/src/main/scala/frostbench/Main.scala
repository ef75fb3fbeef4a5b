package frostbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}

import scala.collection.immutable.ListMap
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession

/** A benchmark workload: builds its inputs from the run's seed, runs its
  * operations in a closed loop with one client, and checks their outputs.
  * Returns the state it measured, so retained memory can be read while it
  * is still reachable.
  */
trait Workload {
  def name: String
  def run(run: Run): AnyRef
}

/** Benchmark entry point.
  *
  * Usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *
  * Seed 0 reproduces the library's pinned seeds; seed n adds n to each.
  * Prints an environment banner, the workload's named timings with their
  * sample counts, and as the last stdout line one JSON object: with
  * tracing off the end-to-end metrics, with tracing on the per-layer ones.
  * Results and spans also go to files under the work directory
  * (system property `frostbench.work`).
  */
object Main {

  val workloads: Seq[String] = Seq("diagram-1m", "sweep-tied", "session-z2")

  /** Per-layer metrics: name -> unit. Span totals end in `_ms`. */
  val perLayer: Seq[(String, String)] = Seq(
    "unionfind.intersection_init_ms" -> "ms",
    "unionfind.uf_init_ms" -> "ms",
    "unionfind.tracked_union_ms" -> "ms",
    "unionfind.intersection_update_ms" -> "ms",
    "unionfind.matches_in" -> "count",
    "unionfind.effective_unions" -> "count",
    "unionfind.effective_union_ratio" -> "ratio",
    "core.sort_ms" -> "ms",
    "core.gold_pairs_ms" -> "ms",
    "core.diagram_self_ms" -> "ms",
    "core.naive_point_ms" -> "ms",
    "core.profile_ms" -> "ms",
    "core.confusion_matrix_ms" -> "ms",
    "graph.closure_ms" -> "ms",
    "graph.edges_in" -> "count",
    "graph.max_component" -> "count",
    "graph.spark_jobs" -> "count",
    "matching.experiment_gen_ms" -> "ms",
    "matching.blocking_ms" -> "ms",
    "matching.similarity_ms" -> "ms",
    "matching.candidates" -> "count",
    "matching.candidate_true_ratio" -> "ratio",
    "tables.family_sims_ms" -> "ms",
    "tables.collect_ms" -> "ms",
    "tables.collected_rows" -> "count",
    "tables.tune_ms" -> "ms",
    "emdata.generate_ms" -> "ms",
    "emdata.records" -> "count",
    "spark.jobs" -> "count",
    "spark.stages" -> "count",
    "spark.tasks" -> "count",
    "spark.task_busy_ms" -> "ms",
    "spark.busy_ratio" -> "ratio",
    "spark.shuffle_read_mb" -> "MB",
    "spark.shuffle_write_mb" -> "MB",
    "jvm.gc_ms" -> "ms",
    "jvm.alloc_mb" -> "MB",
    "trace.op_ms_p50" -> "ms",
  )

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = opts.getOrElse("workload", usage("missing --workload"))
    if (!workloads.contains(workload)) usage(s"unknown workload $workload")
    val seed = opts.getOrElse("seed", "0").toLong
    val seconds = opts.getOrElse("seconds", "10").toInt
    val traced = opts.getOrElse("trace", "0") match {
      case "0" => false
      case "1" => true
      case t => usage(s"--trace must be 0 or 1, got $t")
    }
    val work = Paths.get(sys.props.getOrElse("frostbench.work", ".bench_build"))
    val run = new Run(new Trace(traced), seconds, seed)

    val cores = Runtime.getRuntime.availableProcessors()
    val spark =
      if (workload != "session-z2") None
      else Some(startSpark(math.min(4, cores), work))
    spark.foreach(s => if (traced) run.spark = Some((new SparkCounters(s.sparkContext), s.sparkContext.defaultParallelism)))

    val banner = Seq(
      "cores" -> cores,
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
      "gc" -> Jvm.gcNames,
      "spark_master" -> spark.fold("none")(_.sparkContext.master),
      "default_parallelism" -> spark.fold(0)(_.sparkContext.defaultParallelism),
      "shuffle_partitions" -> spark.fold("none")(_.conf.get("spark.sql.shuffle.partitions")),
      "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}",
      "git_rev" -> sys.props.getOrElse("frostbench.rev", "unknown"),
      "source_sha256" -> sys.props.getOrElse("frostbench.source", "unknown"),
    )
    println("environment: " + banner.map { case (k, v) => s"$k=$v" }.mkString(" "))
    println(s"workload=$workload seed=$seed seconds=$seconds trace=${if (traced) 1 else 0} clients=1 (closed loop)")

    val w: Workload = workload match {
      case "diagram-1m" => Diagrams.diagram1m
      case "sweep-tied" => Diagrams.sweepTied
      case "session-z2" => new Session(spark.get)
    }
    val state = w.run(run)
    val retained = Jvm.retainedMb()
    java.lang.ref.Reference.reachabilityFence(state)
    spark.foreach(_.stop())

    // Every series as its median; setup_s is a median by definition. A p90
    // needs at least 100 samples, so that ten lie beyond it.
    val named = run.samples.toSeq.filter(_._1 != "op_ms").flatMap { case (name, (unit, xs)) =>
      val p50 = (if (name == "setup_s") name else s"${name}_p50", Run.percentile(xs.toSeq, 0.5), unit, xs.length)
      if (xs.length >= 100) Seq(p50, (s"${name}_p90", Run.percentile(xs.toSeq, 0.9), unit, xs.length)) else Seq(p50)
    }
    named.foreach { case (name, v, unit, n) => println(f"$name%-20s $v%12.3f $unit%-3s (n=$n)") }
    println("(a _p90 is printed only for series with at least 100 samples)")
    val failedRatio = run.failed.toDouble / math.max(1, run.attempted)
    println(f"${"retained_mb"}%-20s $retained%12.3f MB")
    println(f"${"failed_ratio"}%-20s $failedRatio%12.3f     (${run.failed} of ${run.attempted} operations)")
    val failedChecks = run.checks.count(!_._2)
    println(s"checks: ${run.checks.size - failedChecks} passed, $failedChecks failed")

    val opMs = run.samples.get("op_ms").map(_._2.toSeq).getOrElse(Nil)
    if (opMs.isEmpty) {
      Console.err.println("no operation succeeded")
      sys.exit(1)
    }
    val setupS = run.samples("setup_s")._2.toSeq
    val endToEnd = Seq(
      "setup_s" -> (Run.percentile(setupS, 0.5), "s"),
      "op_ms_p50" -> (Run.percentile(opMs, 0.5), "ms"),
      "retained_mb" -> (retained, "MB"),
    )
    val layers = if (traced) layerMetrics(run, opMs) else Nil
    val reported = if (traced) layers else endToEnd
    val result = Json.obj(Seq(
      "correct" -> (run.failed == 0),
      "attempted" -> run.attempted,
      "failed" -> run.failed,
      "metrics" -> metricsJson(reported),
    ))

    val dir = Files.createDirectories(work.resolve("results"))
    val stem = s"$workload-seed$seed-trace${if (traced) 1 else 0}"
    Files.writeString(dir.resolve(s"$stem.json"), Json.obj(Seq(
      "environment" -> banner.toMap,
      "workload" -> workload, "seed" -> seed, "seconds" -> seconds, "traced" -> traced,
      "samples" -> run.samples.map { case (k, (unit, xs)) => k -> Map("unit" -> unit, "values" -> xs.toSeq) }.toMap,
      "named" -> named.map { case (k, v, unit, n) => k -> Map("value" -> v, "unit" -> unit, "n" -> n) }.toMap,
      "retained_mb" -> retained,
      "failed_ratio" -> failedRatio,
      "checks" -> run.checks.map { case (k, ok) => Map("check" -> k, "passed" -> ok) }.toSeq,
      "end_to_end" -> metricsJson(endToEnd),
      "per_layer" -> metricsJson(layers),
    )) + "\n", UTF_8)
    if (traced) Files.write(dir.resolve(s"$stem-spans.jsonl"), run.trace.spanLines.toSeq.asJava, UTF_8)
    println(result)
  }

  private def metricsJson(ms: Seq[(String, (Double, String))]): ListMap[String, Map[String, Any]] =
    ListMap.from(ms.map { case (k, (v, unit)) => k -> Map("value" -> v, "unit" -> unit) })

  /** Each per-layer metric as the median over the operations that touched
    * its layer: measured operations if any did, else setups, else the rest
    * (warm-up and checks). 0 where the workload does not reach the layer.
    */
  private def layerMetrics(run: Run, opMs: Seq[Double]): Seq[(String, (Double, String))] = {
    val perOp = run.trace.perOp
    def phase(values: Map[Int, Double]): Map[Int, Double] =
      Seq(values.filter(_._1 > 0), values.filter(_._1 < 0)).find(_.nonEmpty).getOrElse(values)
    def median(values: Map[Int, Double]): Double = Run.percentile(phase(values).values.toSeq, 0.5)
    // Similarity is family-sims time minus the separately run blocking.
    val blocking = perOp.getOrElse("matching.blocking_ms", Map.empty[Int, Double])
    val similarity = perOp.get("tables.family_sims_ms").map(_.map { case (op, ms) => op -> (ms - blocking.getOrElse(op, 0.0)) })
    perLayer.map { case (name, unit) =>
      val v = name match {
        case "matching.similarity_ms" => similarity.fold(0.0)(median)
        case "trace.op_ms_p50" => Run.percentile(opMs, 0.5)
        case other => perOp.get(other).fold(0.0)(median)
      }
      name -> (v, unit)
    }
  }

  private def startSpark(slots: Int, work: Path): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$slots]")
      .appName("frostbench")
      .config("spark.sql.shuffle.partitions", 2 * slots)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", work.resolve("spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", work.resolve("spark-warehouse").toAbsolutePath.toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def usage(msg: String): Nothing = {
    Console.err.println(s"$msg\nusage: --workload <${workloads.mkString("|")}> --seed <n> --seconds <s> --trace <0|1>")
    sys.exit(2)
  }
}
