package frostbench

import java.lang.management.ManagementFactory

import scala.jdk.CollectionConverters._

import org.apache.spark.{ListenerDrain, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted, SparkListenerTaskEnd}

/** Spark work counters, gathered by a listener the benchmark registers. */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  @volatile private var jobs, stages, tasks, busyMs, readBytes, writeBytes = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs += 1
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages += 1
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      busyMs += m.executorRunTime
      readBytes += m.shuffleReadMetrics.totalBytesRead
      writeBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  sc.addSparkListener(this)

  /** Counter values once every event posted so far has been delivered. */
  def snapshot(): SparkCounters.Snapshot = {
    ListenerDrain(sc)
    SparkCounters.Snapshot(jobs, stages, tasks, busyMs, readBytes, writeBytes)
  }
}

object SparkCounters {
  final case class Snapshot(jobs: Long, stages: Long, tasks: Long, busyMs: Long, readBytes: Long, writeBytes: Long) {
    def -(o: Snapshot): Snapshot = Snapshot(
      jobs - o.jobs, stages - o.stages, tasks - o.tasks, busyMs - o.busyMs,
      readBytes - o.readBytes, writeBytes - o.writeBytes)
  }
}

/** JVM counters read from the platform MXBeans. */
object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private def gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala

  /** Total collection time of every collector so far. */
  def gcMs: Long = gcs.map(_.getCollectionTime.max(0L)).sum

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes: Long = threads.getThreadAllocatedBytes(Thread.currentThread().getId)

  def gcNames: String = gcs.map(_.getName).mkString("+")

  /** Heap in use after full collections, in MB. */
  def retainedMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
  }
}
