package frostbench

import scala.collection.mutable

/** In-memory spans and counts recorded around the benchmark's calls into
  * the library's layers. Disabled, it only runs the wrapped code.
  *
  * Every span and count belongs to an operation id: setups are negative,
  * measured operations count up from 1, and warm-up and output checks
  * made outside an operation are 0.
  */
final class Trace(val enabled: Boolean) {
  import Trace._

  private val spans = mutable.ArrayBuffer.empty[Span]
  private val counts = mutable.LinkedHashMap.empty[(Int, String), Double]
  private var open = List.empty[Int]
  private var op = 0

  /** Attribute what follows to operation `id`. */
  def setOp(id: Int): Unit = op = id

  def apply[A](name: String)(f: => A): A =
    if (!enabled) f
    else {
      val id = spans.length
      val parent = open.headOption.getOrElse(-1)
      spans += null // reserve the id so children get later ones
      open = id :: open
      val start = System.nanoTime()
      try f
      finally {
        spans(id) = Span(id, name, start, System.nanoTime(), parent, op)
        open = open.tail
      }
    }

  /** Add `v` to the count `name` of the current operation. */
  def count(name: String, v: Double): Unit =
    if (enabled) counts((op, name)) = counts.getOrElse((op, name), 0.0) + v

  /** Per-operation value of every span name (its total ms) and every count. */
  def perOp: Map[String, Map[Int, Double]] = {
    val out = mutable.Map.empty[String, mutable.Map[Int, Double]]
    def add(name: String, id: Int, v: Double): Unit = {
      val m = out.getOrElseUpdate(name, mutable.Map.empty)
      m(id) = m.getOrElse(id, 0.0) + v
    }
    spans.foreach(s => add(s.name + "_ms", s.op, s.ms))
    // Self time: a span's duration minus what its direct children cover.
    spans.foreach(s => if (s.parent >= 0) add(spans(s.parent).name + "_self_ms", s.op, -s.ms))
    spans.foreach(s => add(s.name + "_self_ms", s.op, s.ms))
    counts.foreach { case ((id, name), v) => add(name, id, v) }
    out.map { case (k, v) => k -> v.toMap }.toMap
  }

  /** One JSON object per span. */
  def spanLines: Iterator[String] = spans.iterator.map { s =>
    Json.obj(Seq("id" -> s.id, "name" -> s.name, "start_ns" -> s.start, "end_ns" -> s.end,
      "parent" -> s.parent, "op" -> s.op))
  }
}

object Trace {
  final case class Span(id: Int, name: String, start: Long, end: Long, parent: Int, op: Int) {
    def ms: Double = (end - start) / 1e6
  }
}
