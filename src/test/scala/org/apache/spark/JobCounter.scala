package org.apache.spark

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted}

/** Counts the Spark jobs a block of driver code starts, and the stages
  * those jobs submit (a stage a job skips, its shuffle output already
  * written, is not counted). Listener delivery is asynchronous, so the
  * counts wait for every event posted so far; this lives in this package
  * because the listener bus is package-private.
  */
object JobCounter {
  /** What `body` returned, its job count and its stage count. */
  def apply[T](sc: SparkContext)(body: => T): (T, Int, Int) = {
    val jobs = new AtomicInteger
    val stages = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = stages.incrementAndGet()
    }
    sc.listenerBus.waitUntilEmpty()
    sc.addSparkListener(listener)
    try {
      val result = body
      sc.listenerBus.waitUntilEmpty()
      (result, jobs.get, stages.get)
    } finally sc.removeSparkListener(listener)
  }
}
