package frostbench

import scala.collection.mutable
import scala.util.control.NonFatal

/** State of one benchmark run: the operations attempted, which of them
  * failed, the output checks, and every timing sample taken.
  *
  * Operation ids follow [[Trace]]: setups are -1, -2, ...; measured
  * operations 1, 2, ...; 0 is an untimed warm-up.
  */
final class Run(val trace: Trace, val seconds: Int, val seed: Long) {

  /** Series name -> (unit, samples). `setup_s` and `op_ms` are filled here;
    * workloads add their own named steps.
    */
  val samples = mutable.LinkedHashMap.empty[String, (String, mutable.ArrayBuffer[Double])]
  val checks = mutable.ArrayBuffer.empty[(String, Boolean)]
  private val failedOps = mutable.Set.empty[Int]
  private var ops = 0

  /** Spark counters and task slots, when the workload uses Spark. */
  var spark: Option[(SparkCounters, Int)] = None

  def attempted: Int = ops
  def failed: Int = failedOps.size

  def sample(name: String, unit: String, v: Double): Unit =
    samples.getOrElseUpdate(name, (unit, mutable.ArrayBuffer.empty))._2 += v

  /** Record an output check on operation `op`; a failed check marks it wrong. */
  def check(op: Int, name: String, ok: Boolean, detail: => String = ""): Unit = {
    checks += ((name, ok))
    if (!ok) {
      failedOps += op
      Console.err.println(s"check failed (operation $op): $name $detail")
    }
  }

  /** Run one operation, timed, on a freshly collected heap, so no
    * operation pays for the garbage of the one before. Returns None if it
    * threw.
    */
  def operation[A](id: Int)(f: => A): Option[A] = {
    ops += 1
    System.gc()
    trace.setOp(id)
    val gc0 = Jvm.gcMs; val alloc0 = Jvm.allocatedBytes
    val spark0 = if (trace.enabled) spark.map(_._1.snapshot()) else None
    val t0 = System.nanoTime()
    val out =
      try Some(f)
      catch {
        case NonFatal(e) =>
          failedOps += id
          Console.err.println(s"operation $id failed: $e")
          e.printStackTrace()
          None
      }
    val ms = (System.nanoTime() - t0) / 1e6
    if (out.isDefined) {
      if (id < 0) sample("setup_s", "s", ms / 1e3)
      if (id == 0) sample("warmup_s", "s", ms / 1e3)
      if (id > 0) sample("op_ms", "ms", ms)
    }
    if (id > 0) {
      trace.count("jvm.gc_ms", (Jvm.gcMs - gc0).toDouble)
      trace.count("jvm.alloc_mb", (Jvm.allocatedBytes - alloc0) / 1e6)
      for ((counters, slots) <- spark; before <- spark0) {
        val d = counters.snapshot() - before
        trace.count("spark.jobs", d.jobs.toDouble)
        trace.count("spark.stages", d.stages.toDouble)
        trace.count("spark.tasks", d.tasks.toDouble)
        trace.count("spark.task_busy_ms", d.busyMs.toDouble)
        trace.count("spark.busy_ratio", d.busyMs / (ms * slots))
        trace.count("spark.shuffle_read_mb", d.readBytes / 1e6)
        trace.count("spark.shuffle_write_mb", d.writeBytes / 1e6)
      }
    }
    trace.setOp(0)
    out
  }

  /** `k` setups, each timed into `setup_s`; returns the ones that succeeded. */
  def setups[A](k: Int)(f: => A): Seq[A] = (1 to k).flatMap(i => operation(-i)(f))

  /** Measured operations until `seconds` have passed, and at least `minOps`. */
  def loop(minOps: Int)(f: Int => Unit): Unit = {
    val deadline = System.nanoTime() + seconds * 1000000000L
    var i = 1
    while (i <= minOps || System.nanoTime() < deadline) { operation(i)(f(i)); i += 1 }
  }
}

object Run {
  def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e6)
  }

  /** Percentile by linear interpolation between closest ranks. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    val pos = p * (s.length - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
}

/** Just enough JSON output for the result line and the result files. */
object Json {
  def value(v: Any): String = v match {
    case null => "null"
    case s: String => "\"" + s.flatMap {
        case '"' => "\\\""
        case '\\' => "\\\\"
        case c if c < ' ' => f"\\u${c.toInt}%04x"
        case c => c.toString
      } + "\""
    case d: Double => require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d"); d.toString
    case b: Boolean => b.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: Map[_, _] => obj(m.toSeq.map { case (k, v) => k.toString -> v })
    case xs: Seq[_] => xs.map(value).mkString("[", ", ", "]")
    case other => value(other.toString)
  }

  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => value(k) + ": " + value(v) }.mkString("{", ", ", "}")
}
